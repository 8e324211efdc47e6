#!/usr/bin/env python3
"""Digests of every result a change must leave bit for bit as it was.

Prints, one per line:

* the sha256 of ``bachlab suite all``'s standard output and of its
  ``--out`` JSON;
* the canonical report digest of each benchmark workload at each seed
  (``perfbench/inputs.DEFAULT_SEED`` and ``HELD_OUT_SEED``), from one pass
  at benchmark size.

It reads the checkout it sits in (``src/`` and ``perfbench/`` next to this
directory) and changes nothing there.  To hold a change to the bits of its
parent, run it in both checkouts and compare:

    python3 scripts/bits_digest.py > /tmp/after.txt
    (cd ../parent && python3 scripts/bits_digest.py) > /tmp/before.txt
    diff /tmp/before.txt /tmp/after.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def suite_digests() -> tuple[str, str]:
    """sha256 of ``suite all``'s stdout and of its ``--out`` JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "suite.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bachlab.cli", "suite", "all",
             "--out", str(out)], env=env, capture_output=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"suite all exited with {proc.returncode}")
        return sha256(proc.stdout), sha256(out.read_bytes())


def main() -> int:
    stdout_sha, json_sha = suite_digests()
    print(f"suite-all stdout {stdout_sha}")
    print(f"suite-all --out {json_sha}")
    run.load_bachlab()
    import inputs
    import workloads
    for name in run.WORKLOAD_NAMES:
        for seed in (inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED):
            ctx = workloads.setup(name, seed)
            p = workloads.run_pass(name, seed, "bench", ctx)
            print(f"{name} seed {seed} {p.digest} failed {p.failed}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark and the `samie-exp` binary, then run one workload.

Usage, from the repository root:

    python3 lsqbench/run.py --workload <paper-grid|lsq-stress|book> \
        --seed N --seconds S --trace <0|1>

Both programs are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); scratch stores and books go under `.bench_work`. Build
output goes to standard error; the last line of standard output is the
JSON result. Any build or run failure exits non-zero without a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    # Cargo reads a relative target directory against the working directory.
    target = (Path.cwd() / target).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["--manifest-path", str(HERE / "Cargo.toml")],
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "exp-harness", "--bin", "samie-exp"],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1
    cmd = [
        str(target / "release" / "lsqbench"),
        *sys.argv[1:],
        "--work",
        str(ROOT / ".bench_work"),
        "--samie-exp",
        str(target / "release" / "samie-exp"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

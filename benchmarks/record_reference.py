"""Record reference.json: the reference-seed results that
checks.check_reference holds later runs to.

    python3 benchmarks/record_reference.py

Run it from the root of a source checkout, on a version of hiercert whose
outputs pass every other check; it refuses to record outputs that fail one.
It writes benchmarks/reference.json and uses .bench_work/reference/ as
scratch space.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
from hiercert import cli  # noqa: E402


def main() -> int:
    work = ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for workload in fixtures.WORKLOADS:
        fx = fixtures.generate(workload, checks.REFERENCE_SEED, work / workload / "inputs")
        reference[workload] = {}
        for cmd in fx.commands:
            out = work / workload / "out" / cmd.name
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([cmd.command, "--config", str(fx.inputs / cmd.config),
                               "--out", str(out)])
            problems = checks.CHECKS[cmd.command](out, fx.truth[cmd.name]) if rc == 0 \
                else [f"exit code {rc}"]
            if problems:
                print(f"{workload} {cmd.name}: not recorded: {problems}", file=sys.stderr)
                return 1
            reference[workload][cmd.name] = checks.summarize(cmd.command, out)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

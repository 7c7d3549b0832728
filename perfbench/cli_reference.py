"""Write ``repro explore --json`` output for service specs.

Usage: ``python3 perfbench/cli_reference.py OUT.json SPEC.json...``

Each SPEC is a service job spec. Its CLI equivalent runs through
``repro.cli.main`` (the ``repro explore`` command itself) in this one
process, and ``OUT.json`` maps each spec's key to the JSON the CLI
exported (its ``design_points`` rows).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import sys
import tempfile

from common import OUT, use_src
from service import spec_key


def main(argv: list[str]) -> int:
    out, *specs = argv
    use_src()
    from repro.cli import main as cli_main

    rows = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        path = pathlib.Path(scratch) / "front.json"
        for raw in specs:
            spec = json.loads(raw)
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = cli_main([
                    "explore", spec["workload"],
                    "--scale", str(spec["scale"]),
                    "--seed", str(spec["seed"]),
                    "--select", str(spec["select"]),
                    "--keep", str(spec["keep"]),
                    "--jobs", "1",
                    "--json", str(path),
                ])
            if code != 0:
                return code
            rows[spec_key(spec)] = json.loads(path.read_text())
    pathlib.Path(out).write_text(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

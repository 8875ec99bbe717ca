#!/usr/bin/env python3
"""Write reference.json: the exact fields of every anchor op's report.

    python3 bench/capture_references.py

Run it only on a commit whose reports are known to be right: the anchor
ops of every later run are compared with what it stores.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import REFERENCES, call, load_program


def main() -> int:
    cli = load_program()
    references: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        references[workload] = {}
        for kind in workloads.kinds(workload):
            argv = workloads.anchor_argv(kind)
            result = call(cli, argv)
            failure = checks.check(result, workloads.default_point(kind.profile))
            if failure is not None:
                print(f"{kind.name}: {failure}; nothing written", file=sys.stderr)
                return 1
            references[workload][kind.name] = {
                "argv": argv,
                "exact": checks.exact_fields(result.report()),
            }
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

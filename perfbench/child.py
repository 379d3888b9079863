"""Run one dynamokit CLI command with its layer calls traced.

Usage: python3 perfbench/child.py SPANS_PATH [dynamokit arguments ...]

The cli-cold workload starts this in place of `python -m dynamokit` for its
traced requests.  It times `import dynamokit`, wraps the layer functions,
runs the command, and writes the spans, the counts and the Frenet memory
probe to SPANS_PATH as JSON.  The exit status is the command's.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.dynamokit"):
        import dynamokit.cli
    tracer.install()
    try:
        code = dynamokit.cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.memory_probe()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts[tracer.request],
                   "bytes_per_sample": tracer.bytes_per_sample}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

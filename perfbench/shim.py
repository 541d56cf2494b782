"""Child-process entry: run the coxchar CLI exactly as `coxchar <args>` does.

    python3 perfbench/shim.py OUT [--trace] [--probe] -- <coxchar arguments>

The shim records the CLOCK_MONOTONIC time at which the CLI, having started
the interpreter, imported coxchar and parsed its arguments, makes its first
layer call (`coxchar.cli.run`).  The parent takes set-up time as that instant
minus the instant it spawned the process.  `--probe` stops there, so a probe
measures set-up alone.  `--trace` wraps every traced layer function first
(see tracer.py) and adds the spans to OUT.  OUT is a JSON file written at
exit; the CLI's own stdout, stderr and exit code pass through untouched.
"""

import json
import sys
import time


def main() -> int:
    sep = sys.argv.index("--")
    out_path, *flags = sys.argv[1:sep]
    cli_args = sys.argv[sep + 1:]

    from coxchar import cli

    recorder = None
    if "--trace" in flags:
        import tracer

        recorder = tracer.install()

    record = {}
    real_run = cli.run
    probe = "--probe" in flags

    def first_layer_call(args):
        record["first_call"] = time.monotonic()
        if probe:
            return [], 0
        return real_run(args)

    cli.run = first_layer_call
    try:
        return cli.main(cli_args)
    finally:
        if recorder is not None:
            record["trace"] = recorder.dump()
        with open(out_path, "w") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())

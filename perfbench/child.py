"""One workload iteration of `sgrg.cli.main`, in the fresh process run.py starts.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the source directory, the CLI argument lists to run in turn, the
marker of the first unit of work ("rg_step" for the flows, "cmd_identities"
for the verify workload), whether to trace, whether to stop at the marker
(a set-up probe), and where to write the result JSON.  Times are
`time.monotonic()` readings, which run.py compares with its own.
"""

import time

T_START = time.monotonic()  # before numpy and sgrg are imported

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class SetupDone(BaseException):
    """Raised at the first unit of work of a set-up probe (passes cli.main)."""


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import sgrg
    from sgrg import cli, rgmap
    from tracer import Tracer, _activity_size, patch_everywhere, per_layer_metrics

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(sgrg.__file__).startswith(src + os.sep):
        print(f"sgrg imported from {sgrg.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    marks = {"first": None, "steps": []}

    def first_unit():
        if marks["first"] is None:
            marks["first"] = time.monotonic()
            if spec["setup_only"]:
                raise SetupDone

    if spec["marker"] == "rg_step":
        inner = rgmap.rg_step

        def rg_step(*args, **kwargs):
            first_unit()
            out = inner(*args, **kwargs)
            marks["steps"].append(list(_activity_size(out[0])))
            return out

        patch_everywhere(inner, rg_step)
    else:
        inner_cmd = cli.cmd_identities

        def cmd_identities(args):
            first_unit()
            return inner_cmd(args)

        patch_everywhere(inner_cmd, cmd_identities)

    rcs = []
    try:
        for argv in spec["commands"]:
            rcs.append(cli.main(argv))
            if rcs[-1] != 0:
                break
    except SetupDone:
        pass
    t_end = time.monotonic()
    cpu_s = _cpu_seconds()
    result = {
        "t_start": T_START,
        "t_first": marks["first"],
        "t_end": t_end,
        "rcs": rcs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cpu_s": cpu_s,
        "steps": marks["steps"],
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer.summary(), cpu_s)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

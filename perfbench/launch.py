"""Run ``efdyn.cli.main`` in this process after installing the benchmark's hooks.

    python perfbench/launch.py {clock|trace} OP_ID RECORD.json -- <efdyn cli arguments>

``clock`` times every family value (each call of the ``search_ground_state``
the CLI looks up) between two machine-speed samples, so that a family sweep
yields one latency per value; it wraps nothing else. ``trace`` installs the full span
recorder of ``spans.py``. Either way the record is written to RECORD.json and
the exit code is the CLI's.
"""

import json
import sys
import time

import spans
from workloads import speed_sample


def main() -> int:
    mode, op_id, record = sys.argv[1:4]
    argv = sys.argv[sys.argv.index("--") + 1:]
    import efdyn.cli as cli
    if mode == "clock":
        values = []                     # (seconds, speed sample before, speed sample after)
        t0 = time.perf_counter()
        speed_sample()                  # the first solve pays one-off set-up
        last = [speed_sample()]
        sampling = [time.perf_counter() - t0]
        search = cli.search_ground_state

        def stamped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return search(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                last.append(speed_sample())
                sampling[0] += time.perf_counter() - t1
                values.append((t1 - t0, last[-2], last[-1]))
        cli.search_ground_state = stamped
        code = cli.main(argv)
        payload = {"values": values, "sampling_s": sampling[0]}
    elif mode == "trace":
        rec = spans.Recorder()
        rec.install()
        rec.op = op_id
        root = rec.open("cli.main")
        try:
            code = cli.main(argv)
        finally:
            rec.close(root)
            rec.uninstall()
        payload = {"spans": rec.spans}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(record, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

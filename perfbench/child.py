"""One measured benfordxy CLI run in a fresh interpreter.

    python3 child.py RESULT.json MODE -- CLI-ARGS...

MODE is `setup` (import and resolve the config, then stop), `run` (plain
command), `pool` (command with a parent-side process-pool counter) or
`trace` (serial command with spans around every module entry point).
The result file holds the monotonic times at which set-up ended and the
command started and ended, so the parent can measure set-up from the
moment it spawned this interpreter and match both intervals with its speed
probe, and the command's wall time and resource usage of this process and
its workers.
"""

import json
import resource
import sys
import time


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(
        resource.RUSAGE_CHILDREN
    )


def main() -> int:
    out_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "run", "pool", "trace"):
        print("usage: child.py RESULT.json setup|run|pool|trace -- ARGS", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    from benfordxy import cli

    t1 = time.perf_counter()
    cli.resolve_config(cli.build_parser().parse_args(argv))
    t2 = time.perf_counter()
    record = {"setup_done": time.monotonic(), "import_s": t1 - t0, "config_s": t2 - t1}
    if mode != "setup":
        run = cli.main
        tracer = None
        if mode in ("pool", "trace"):
            import tracer as tr

            tracer = tr.Tracer()
            if mode == "pool":
                tr.install_pool_counter(tracer)
            else:
                tr.install(tracer)
                run = tracer.wrap("cli", cli.main)
        (s0, c0) = _usage()
        m0, w0 = time.monotonic(), time.perf_counter()
        rc = run(argv)
        w1, m1 = time.perf_counter(), time.monotonic()
        (s1, c1) = _usage()
        record.update(
            rc=rc,
            run_start=m0,
            run_end=m1,
            wall_s=w1 - w0,
            user_s=(s1.ru_utime - s0.ru_utime) + (c1.ru_utime - c0.ru_utime),
            sys_s=(s1.ru_stime - s0.ru_stime) + (c1.ru_stime - c0.ru_stime),
            minor_faults=(s1.ru_minflt - s0.ru_minflt) + (c1.ru_minflt - c0.ru_minflt),
            peak_rss_mb=max(s1.ru_maxrss, c1.ru_maxrss) / 1024.0,
        )
        if tracer is not None:
            record["trace"] = tracer.dump()
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

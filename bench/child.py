"""Child-process entry points of the benchmark.

    python3 bench/child.py setup (--preset NAME | --config FILE) --seed N
        Import jscc, parse the experiment, resolve and build the codec of
        every (curve, point) and every dimension check, and measure the
        normalization of each distinct resolved spec, all serially.  Prints
        one JSON line with the seconds taken.

    python3 bench/child.py trace --spans FILE -- <jscc arguments>
        Run `jscc <arguments>` in this process with every layer wrapped in
        spans, then write the spans to FILE.  Exits with jscc's exit code.

Both expect the package on the import path (PYTHONPATH=src).
"""

import argparse
import json
import sys
import time

T_START = time.perf_counter()


def setup(argv) -> int:
    parser = argparse.ArgumentParser(prog="child.py setup")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset")
    group.add_argument("--config")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    import dataclasses

    from jscc import channel, cli, codecs
    t_imported = time.perf_counter()

    if args.preset is not None:
        data = cli.PRESETS[args.preset]()
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    exp = dataclasses.replace(cli.parse_config(data), master_seed=args.seed)
    distinct = {}
    for job in exp.curves:
        for snr in job.grid:
            spec = codecs.resolve_for_sigma(job.spec, channel.sigma_from_snr_db(snr))
            codec = codecs.build_codec(spec)
            distinct.setdefault(spec, codec)
    for job in exp.dimension_checks:
        codecs.build_codec(job.spec)
    for codec in distinct.values():
        codecs.measure_normalization(codec)
    t_end = time.perf_counter()
    print(json.dumps({"setup_s": t_end - T_START, "import_s": t_imported - T_START,
                      "normalizations": len(distinct)}))
    return 0


def trace(argv) -> int:
    parser = argparse.ArgumentParser(prog="child.py trace")
    parser.add_argument("--spans", required=True)
    parser.add_argument("jscc_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    jscc_args = args.jscc_args[1:] if args.jscc_args[:1] == ["--"] else args.jscc_args

    import tracing

    t_import = time.perf_counter()
    import jscc.cli
    import_s = time.perf_counter() - t_import

    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    try:
        code = jscc.cli.main(jscc_args)
    finally:
        patch.remove()
    tracer.dump(args.spans, {"import_s": import_s, "exit_code": code})
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in ("setup", "trace"):
        print("usage: child.py {setup,trace} ...", file=sys.stderr)
        return 2
    return (setup if argv[0] == "setup" else trace)(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of lbseries: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ``src/``.
Workloads (see README.md in this directory):

  subst-cold    a fresh interpreter per pass runs the CLI's substitute and
                compose on seeded order-6 characters
  series-warm   one process; after warm-up each round applies substitute_lb
                and compose_lb to fresh seeded order-6 characters
  graft-cold    a fresh interpreter per pass runs gl_product on every pair of
                ordered forests of total order 6 and a_alpha up to order 4
  bseries-cold  a fresh interpreter per pass runs verify_bseries_substitution
                and convolve(..., "h"/"ck") at order 7

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass and the tracing
overhead.  Spans of one traced pass are left in
``.perfbench/<workload>-spans.tsv``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
CHILD_TIMEOUT = 150
SETUPS = 5  # series-warm set-ups per run


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def spawn(args: list[str]) -> tuple[float, dict | None]:
    """Run one child; return its start time and its record (None if it
    failed)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print(f"child {args} timed out", file=sys.stderr)
        return started, None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return started, None
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def keep_spans(workdir: str, workload: str) -> None:
    shutil.copy(os.path.join(workdir, "spans.tsv"), os.path.join(OUT, f"{workload}-spans.tsv"))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Checks in this process, after every child has ended.


def import_program():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import lbseries
    import lbseries.cli

    return lbseries


def check_cold(workload: str, paths: dict[str, str]) -> tuple[str, list[str]]:
    """Digest of the parent's own pass, and the failed independent checks."""
    from perfbench import jobs

    lb = import_program()
    steps, data = jobs.cold_steps(lb, workload, paths)
    results, texts = jobs.run_steps(steps)
    if workload == "subst-cold":
        cm = lb.coeffalg.CharacterMap
        alpha, beta, gamma = (cm.load(paths[k]) for k in ("alpha", "beta", "gamma"))
        substituted = lb.seriesmorph.substitute_lb(alpha, beta)
        composed = lb.seriesmorph.compose_lb(beta, gamma)
        failures = jobs.check_series(lb, alpha, beta, gamma, substituted, composed)
        texts_expected = {
            "substitute": jobs.expected_cli_text(substituted),
            "compose": jobs.expected_cli_text(composed),
        }
        if texts != texts_expected:
            failures.append("CLI output differs from the library result")
        order = jobs.SERIES_ORDER
    elif workload == "graft-cold":
        gl = {pair: results[name] for pair, (name, *_) in zip(jobs.gl_pairs(lb), steps)}
        images = {w: results[f"a_alpha {w.serialize()}"] for w in jobs.a_alpha_forests(lb)}
        failures = jobs.check_graft(lb, data, gl, images)
        order = jobs.GL_ORDER
    else:
        failures = jobs.check_bseries(
            lb, data, results["verify"], results["convolve-h"], results["convolve-ck"]
        )
        order = jobs.CONVOLVE_ORDER
    return jobs.digest(texts), failures + jobs.check_bases(lb, order)


def check_warm(seed: int, workdir: str) -> tuple[str, list[str]]:
    from perfbench import jobs

    lb = import_program()
    docs = jobs.inputs("series-warm", seed, 0)
    paths = jobs.write_inputs(docs, workdir)
    cm = lb.coeffalg.CharacterMap
    chars = {k: cm.load(p) for k, p in paths.items()}
    results, texts = jobs.run_steps(jobs.round_steps(lb, chars))
    failures = jobs.check_series(
        lb, chars["alpha"], chars["beta"], chars["gamma"], results["s_ab"], results["c_bg"]
    )
    cli_texts = [thunk() for _, thunk, *_ in jobs.subst_steps(lb, paths)]
    if cli_texts != [jobs.expected_cli_text(results[k]) for k in ("s_ab", "c_bg")]:
        failures.append("CLI output differs from the library result")
    return jobs.digest(texts), failures + jobs.check_bases(lb, jobs.SERIES_ORDER)


# ---------------------------------------------------------------------------
# Workloads.


def run_cold(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from perfbench import jobs
    from perfbench.clock import Fastest, read_units

    started = time.perf_counter()
    paths = jobs.write_inputs(jobs.inputs(workload, seed), workdir)
    generated = time.perf_counter() - started

    plain, traced, failed_children = [], [], 0
    fastest, fastest_traced = Fastest(), Fastest()
    start = time.perf_counter()
    while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
        # With tracing, passes alternate (traced, plain, traced, ...) so that
        # both kinds see the same phases of the machine.
        use_trace = trace and len(traced) <= len(plain)
        mode = "pass-trace" if use_trace else "pass"
        spawned, record = spawn([workload, workdir, str(seed), mode])
        if record is None:
            failed_children += 1
            if failed_children > 3:
                break
            continue
        record["setup"] = generated + record["ready"] - spawned
        units = read_units(os.path.join(workdir, "units.bin"))
        (fastest_traced if use_trace else fastest).add(units)
        (traced if use_trace else plain).append(record)
        if use_trace and len(traced) == 1:
            keep_spans(workdir, workload)

    expected, failures = check_cold(workload, paths)
    passes = plain + traced
    wrong = sum(1 for r in passes if r["digest"] != expected)
    result = summarize(len(passes), failed_children, wrong, failures)
    if not plain or (trace and not traced):
        return result
    job_s = fastest.total()
    if trace:
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = fastest_traced.total() - job_s
        result["metrics"] = layer_metrics(values)
    else:
        result["metrics"] = {
            "job_s": metric(job_s, "s"),
            "setup_s": metric(statistics.median(r["setup"] for r in plain), "s"),
            "peak_rss_mb": metric(max(r["maxrss_kb"] for r in plain) / 1024, "MiB"),
        }
    return result


def run_warm(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """series-warm: SETUPS processes set up; the middle one then runs the
    rounds, so the set-ups fall before and after the measured window.
    setup_s is the median start-up to ``import lbseries`` plus the fastest
    units of the warm-up over the set-ups."""
    from perfbench.clock import Fastest, read_units

    starts, warmups, failed_children, record = [], Fastest(), 0, None
    for k in range(SETUPS):
        args = ["series-warm", workdir, str(seed), "setup"]
        if k == SETUPS // 2:
            args[3:] = ["rounds", str(seconds)] + (["trace"] if trace else [])
        spawned, done = spawn(args)
        if done is None:
            failed_children += 1
            continue
        starts.append(done["imported"] - spawned)
        warmups.add(read_units(os.path.join(workdir, "units.bin")))
        if k == SETUPS // 2:
            record = done
    if record is None:
        return summarize(0, failed_children, 0, ["the series-warm process failed"])
    if trace:
        keep_spans(workdir, "series-warm")

    expected, failures = check_warm(seed, workdir)
    wrong = record["mismatches"] + (record["digest0"] != expected)
    rounds = record["rounds"] + record["traced_rounds"]
    result = summarize(rounds, failed_children, wrong, failures)
    if trace:
        values = dict(record["layers"])
        values["trace.overhead_s"] = record["traced_job_s"] - record["job_s"]
        result["metrics"] = layer_metrics(values)
    else:
        result["metrics"] = {
            "job_s": metric(record["job_s"], "s"),
            "setup_s": metric(statistics.median(starts) + warmups.total(), "s"),
            "peak_rss_mb": metric(record["maxrss_kb"] / 1024, "MiB"),
        }
    return result


def summarize(attempted: int, failed_children: int, wrong: int, failures: list[str]) -> dict:
    """Result without metrics.  ``wrong`` passes (rounds) gave output that
    differs from the checked one; a failed independent check fails them all."""
    if failures:
        print("\n".join(failures), file=sys.stderr)
        wrong = attempted
    return {
        "correct": not failures and not wrong and not failed_children,
        "attempted": attempted + failed_children,
        "failed": wrong + failed_children,
        "metrics": {},
    }


def layer_metrics(values: dict) -> dict:
    from perfbench.layers import UNITS

    return {name: metric(values[name], UNITS[name]) for name in UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lbseries", "__init__.py")):
        return fail(f"no lbseries sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, ROOT)
    from perfbench import jobs

    if args.workload not in jobs.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(jobs.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if args.workload == "series-warm":
                result = run_warm(args.seed, args.seconds, bool(args.trace), workdir)
            else:
                result = run_cold(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    counts = " ".join(f"{k} {result[k]}" for k in ("attempted", "failed", "correct"))
    print(f"{args.workload} {counts}")
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())

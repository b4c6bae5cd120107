"""One workload process, started by run.py in a fresh interpreter.

    python3 perfbench/child.py <workload> <workdir> <seed> <mode> [<seconds>]

Modes: ``pass`` and ``pass-trace`` run one pass of a cold workload on the
inputs in <workdir>; ``setup`` sets up series-warm and exits; ``rounds``
sets up series-warm and runs rounds for <seconds> seconds (every second
round traced when <seconds> is followed by ``trace``).  Unit times go to
<workdir>/units.bin, spans to <workdir>/spans.tsv; the last line of standard
output is one JSON record for run.py.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import lbseries  # noqa: E402
import lbseries.cli  # noqa: E402

from perfbench import clock, jobs, layers  # noqa: E402

MODULES = ("trees", "coeffalg", "postlie", "prelie", "subst", "seriesmorph", "numericdemo", "cli")


def maxrss_kb() -> int:
    """Peak resident set of this process image.  ``VmHWM`` restarts at exec,
    while ``ru_maxrss`` keeps the parent's size from the fork."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def new_tracer() -> clock.Tracer:
    tracer = clock.Tracer()
    tracer.install([getattr(lbseries, m) for m in MODULES])
    return tracer


def traced_layers(tracer, cached, before) -> dict:
    values = layers.span_values(tracer.totals())
    values.update(layers.cache_values(before, layers.cache_snapshot(cached)))
    return values


def cold_pass(workload: str, workdir: str, traced: bool) -> dict:
    paths = {
        name[: -len(".json")]: os.path.join(workdir, name)
        for name in os.listdir(workdir)
        if name.endswith(".json")
    }
    steps, _ = jobs.cold_steps(lbseries, workload, paths)
    ready = time.perf_counter()
    cached = layers.cached_functions(lbseries)
    tracer = new_tracer() if traced else None
    unit_clock = clock.UnitClock()
    for owner, name in dict.fromkeys(split for *_, splits in steps for split in splits):
        unit_clock.split(owner, name)
    before = layers.cache_snapshot(cached)
    _, texts = jobs.run_steps(steps, unit_clock)
    record = {"ready": ready, "maxrss_kb": maxrss_kb(), "digest": jobs.digest(texts)}
    clock.write_units(unit_clock.units, os.path.join(workdir, "units.bin"))
    if traced:
        record["layers"] = traced_layers(tracer, cached, before)
        spans = os.path.join(workdir, "spans.tsv")
        if not os.path.exists(spans):
            tracer.write(spans)
    return record


def take_units(unit_clock) -> dict:
    out = dict(unit_clock.units)
    unit_clock.units.clear()
    return out


def round_chars(seed: int, index: int) -> dict:
    CharacterMap = lbseries.coeffalg.CharacterMap
    docs = jobs.inputs("series-warm", seed, index)
    return {k: CharacterMap.from_json(v) for k, v in docs.items()}


def warm(seed: int, workdir: str, seconds: float | None, traced: bool) -> dict:
    """Set up series-warm: generate the warm-up inputs and run one round on
    them, timed as units.  Then, given ``seconds``, run rounds on fresh
    inputs, each checked against the cointeraction identity."""
    imported = time.perf_counter()
    unit_clock = clock.UnitClock()
    for owner, name in jobs.series_splits(lbseries):
        unit_clock.split(owner, name)
    chars = unit_clock.step("inputs", lambda: round_chars(seed, -1))
    jobs.run_steps(jobs.round_steps(lbseries, chars), unit_clock)
    clock.write_units(take_units(unit_clock), os.path.join(workdir, "units.bin"))
    record = {"imported": imported}
    if seconds is None:
        record["maxrss_kb"] = maxrss_kb()
        return record
    cached = layers.cached_functions(lbseries)
    tracer = new_tracer() if traced else None
    plain, traced_rounds, layer_rounds = clock.Fastest(), clock.Fastest(), []
    texts0, mismatches, index = None, 0, 0
    start = time.perf_counter()
    while index < 2 or time.perf_counter() - start < seconds:
        chars = round_chars(seed, index)
        # With tracing, odd rounds are traced and even rounds are not, so
        # both see the same phases of the machine.
        tracing = tracer is not None and index % 2 == 1
        if tracer:
            tracer.enabled = tracing
            if tracing:
                tracer.clear()
        before = layers.cache_snapshot(cached)
        results, texts = jobs.run_steps(jobs.round_steps(lbseries, chars), unit_clock)
        (traced_rounds if tracing else plain).add(take_units(unit_clock))
        if tracing:
            layer_rounds.append(traced_layers(tracer, cached, before))
        mismatches += results["lhs"] != results["rhs"]
        if index == 0:
            texts0 = texts
        index += 1
    record.update(
        maxrss_kb=maxrss_kb(),
        rounds=plain.passes,
        job_s=plain.total(),
        traced_rounds=traced_rounds.passes,
        traced_job_s=traced_rounds.total(),
        digest0=jobs.digest(texts0),
        mismatches=mismatches,
    )
    if tracer:
        record["layers"] = {
            k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]
        }
        tracer.write(os.path.join(workdir, "spans.tsv"))
    return record


def main(argv: list[str]) -> int:
    workload, workdir, seed, mode = argv[:4]
    if mode in ("pass", "pass-trace"):
        record = cold_pass(workload, workdir, mode == "pass-trace")
    elif mode == "setup":
        record = warm(int(seed), workdir, None, False)
    else:
        record = warm(int(seed), workdir, float(argv[4]), argv[5:] == ["trace"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

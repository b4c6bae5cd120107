"""What the benchmark reads of the program.  Every perfbench child takes the
``cache_info()`` of ``subst.delta_w`` and ``postlie.delta_n`` on every pass,
so a change that drops either cache fails here, and not only in every
benchmark run."""

import lbseries
from lbseries import parse_forest

from perfbench.layers import CACHE_METRICS, cache_snapshot, cache_values, cached_functions


def test_the_benchmark_reads_the_caches_it_names():
    functions = cached_functions(lbseries)
    before = cache_snapshot(functions)
    forest = parse_forest("[[]] []")
    lbseries.subst.delta_w(forest)
    lbseries.postlie.delta_n(forest)
    values = cache_values(before, cache_snapshot(functions))
    assert set(values) == set(CACHE_METRICS)
    assert values["subst.delta_w.cache_entries"] and values["postlie.delta_n.cache_entries"]

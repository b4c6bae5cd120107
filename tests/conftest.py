import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
# the tests' helpers, and the repository root for perfbench's seeded inputs
sys.path[:0] = [TESTS, os.path.dirname(TESTS)]

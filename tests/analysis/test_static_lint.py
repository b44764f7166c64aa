"""Unit tests for the determinism/concurrency linter."""

from __future__ import annotations

from repro.analysis.static import lint_source
from repro.analysis.static.lint import RULES


def rules_of(source, **kwargs):
    return [finding.rule for finding in lint_source(source, **kwargs)]


class TestND101SetIteration:
    def test_for_over_set_literal(self):
        assert rules_of("for x in {1, 2, 3}:\n    print(x)\n") == ["ND101"]

    def test_for_over_set_call(self):
        assert rules_of("for x in set(items):\n    print(x)\n") == ["ND101"]

    def test_comprehension_over_frozenset(self):
        assert rules_of("out = [x for x in frozenset(items)]\n") == ["ND101"]

    def test_set_union_operator(self):
        assert rules_of("for x in set(a) | set(b):\n    pass\n") == ["ND101"]

    def test_set_method_chain(self):
        assert rules_of("for x in set(a).intersection(b):\n    pass\n") == ["ND101"]

    def test_materializing_sinks(self):
        assert rules_of("order = list({3, 1})\n") == ["ND101"]
        assert rules_of("order = tuple(set(x))\n") == ["ND101"]
        assert rules_of("s = ','.join({'a', 'b'})\n") == ["ND101"]

    def test_sorted_is_the_sanctioned_fix(self):
        assert rules_of("for x in sorted({3, 1}):\n    pass\n") == []
        assert rules_of("order = sorted(set(x))\n") == []

    def test_plain_list_iteration_clean(self):
        assert rules_of("for x in [1, 2]:\n    pass\n") == []
        assert rules_of("for k in mapping:\n    pass\n") == []


class TestND102WallClock:
    def test_time_time(self):
        assert rules_of("import time\nstamp = time.time()\n") == ["ND102"]

    def test_time_time_ns(self):
        assert rules_of("import time\nstamp = time.time_ns()\n") == ["ND102"]

    def test_datetime_now(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert rules_of(source) == ["ND102"]

    def test_monotonic_clocks_allowed(self):
        # perf_counter/monotonic are fine: the repo uses them for phase
        # metrics that never feed committed state.
        assert rules_of("import time\nt = time.perf_counter()\n") == []
        assert rules_of("import time\nt = time.monotonic()\n") == []

    def test_sleep_allowed(self):
        assert rules_of("import time\ntime.sleep(0.1)\n") == []


class TestND103GlobalRandom:
    def test_module_level_random(self):
        assert rules_of("import random\nx = random.random()\n") == ["ND103"]
        assert rules_of("import random\nx = random.choice(xs)\n") == ["ND103"]

    def test_from_import(self):
        assert rules_of("from random import choice\nx = choice(xs)\n") == ["ND103"]

    def test_unseeded_random_instance(self):
        assert rules_of("import random\nrng = random.Random()\n") == ["ND103"]

    def test_seeded_instance_is_clean(self):
        assert rules_of("import random\nrng = random.Random(42)\n") == []
        assert rules_of("import random\nrng = random.Random(seed)\nrng.random()\n") == []


class TestND104MutableDefaults:
    def test_literal_defaults(self):
        assert rules_of("def f(x=[]):\n    pass\n") == ["ND104"]
        assert rules_of("def f(x={}):\n    pass\n") == ["ND104"]
        assert rules_of("def f(*, x={1}):\n    pass\n") == ["ND104"]

    def test_constructor_defaults(self):
        assert rules_of("def f(x=list()):\n    pass\n") == ["ND104"]
        assert rules_of("def f(x=dict()):\n    pass\n") == ["ND104"]

    def test_immutable_defaults_clean(self):
        assert rules_of("def f(x=(), y=None, z=0):\n    pass\n") == []


THREADED_CLASS = '''
from concurrent.futures import ThreadPoolExecutor

class Engine:
    def __init__(self):
        self.count = 0
        self.items = []
        self.slots = {}

    def run(self):
        with ThreadPoolExecutor() as pool:
            pool.submit(self._work)

    def read_count(self):
        return self.count

    def read_items(self):
        return self.items

    def read_slots(self):
        return self.slots

    def _work(self):
BODY
'''


def threaded(body):
    indented = "\n".join(f"        {line}" for line in body.splitlines())
    return THREADED_CLASS.replace("        BODY", indented).replace("BODY", indented)


class TestND2xxThreadSharedState:
    def test_nd201_augassign_in_thread_target(self):
        assert rules_of(threaded("self.count += 1")) == ["ND201"]

    def test_nd202_plain_shared_write(self):
        assert rules_of(threaded("self.count = 5")) == ["ND202"]

    def test_nd203_container_mutation_is_warning(self):
        findings = lint_source(threaded("self.items.append(1)"))
        assert [f.rule for f in findings] == ["ND203"]
        assert findings[0].severity == "warning"

    def test_nd203_subscript_store(self):
        assert rules_of(threaded("self.slots['k'] = 1")) == ["ND203"]

    def test_lock_guard_suppresses_all(self):
        body = "with self._lock:\n    self.count += 1\n    self.items.append(1)"
        assert rules_of(threaded(body)) == []

    def test_transitive_reachability_via_helper(self):
        source = threaded("self._helper()") + (
            "    def _helper(self):\n"
            "        self.count += 1\n"
        )
        assert rules_of(source) == ["ND201"]

    def test_unreachable_method_is_clean(self):
        # The same mutation outside any thread-reachable call chain.
        source = threaded("pass") + (
            "    def main_thread_only(self):\n"
            "        self.count += 1\n"
        )
        assert rules_of(source) == []

    def test_non_shared_attribute_is_clean(self):
        # An attribute only ever touched by the thread-reachable closure
        # (plus __init__) is thread-private by construction.
        source = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self.scratch = 0\n"
            "    def run(self):\n"
            "        with ThreadPoolExecutor() as pool:\n"
            "            pool.submit(self._work)\n"
            "    def _work(self):\n"
            "        self.scratch = 1\n"
        )
        assert rules_of(source) == []

    def test_thread_constructor_target(self):
        source = (
            "import threading\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._work).start()\n"
            "    def read(self):\n"
            "        return self.count\n"
            "    def _work(self):\n"
            "        self.count += 1\n"
        )
        assert rules_of(source) == ["ND201"]

    def test_lambda_dispatch_resolves_calls(self):
        source = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def start(self):\n"
            "        with ThreadPoolExecutor() as pool:\n"
            "            pool.map(lambda item: self._work(item), [1])\n"
            "    def read(self):\n"
            "        return self.count\n"
            "    def _work(self, item):\n"
            "        self.count += item\n"
        )
        assert rules_of(source) == ["ND201"]

    def test_nd2xx_suppressible(self):
        body = "self.count += 1  # nd: ignore[ND201]"
        assert rules_of(threaded(body)) == []


class TestSuppression:
    def test_line_suppression_all_rules(self):
        assert rules_of("import time\nt = time.time()  # nd: ignore\n") == []

    def test_line_suppression_specific_rule(self):
        source = "import time\nt = time.time()  # nd: ignore[ND102]\n"
        assert rules_of(source) == []

    def test_wrong_code_does_not_suppress(self):
        source = "import time\nt = time.time()  # nd: ignore[ND101]\n"
        assert rules_of(source) == ["ND102"]

    def test_file_level_suppression(self):
        source = "# nd: ignore-file\nimport time\nt = time.time()\n"
        assert rules_of(source) == []

    def test_select_restricts_rules(self):
        source = "import time\nt = time.time()\nfor x in {1}:\n    pass\n"
        assert rules_of(source, select=["ND101"]) == ["ND101"]


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == ["ND100"]

    def test_findings_carry_location(self):
        (finding,) = lint_source("import time\nt = time.time()\n", path="mod.py")
        assert finding.path == "mod.py"
        assert finding.line == 2
        assert "wall-clock" in finding.message

    def test_rule_catalog_documented(self):
        assert set(RULES) == {
            "ND101",
            "ND102",
            "ND103",
            "ND104",
            "ND201",
            "ND202",
            "ND203",
        }

    def test_render_and_json(self):
        (finding,) = lint_source("import time\nt = time.time()\n", path="m.py")
        assert finding.render().startswith("m.py:2:")
        assert finding.to_json()["rule"] == "ND102"

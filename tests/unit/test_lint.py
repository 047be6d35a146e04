"""repro-lint: fixture tests for every determinism-contract rule.

Violation and clean fixtures per rule: a *violation* fixture proves the
rule detects its violation class, a *clean* fixture proves it stays quiet
on conforming code.  The only holes in a contract
are the module lists of ``repro.lint.config``; a comment in the linted
file opens none.  The shipped tree itself must lint clean
(`test_shipped_tree_is_clean`).
"""

import os
import subprocess
import sys

import pytest

from repro.lint import Finding, all_rules, lint_source, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.context import module_name_for

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def rules_of(findings):
    return [f.rule for f in findings]


def lint_one(source, module="repro/example.py", rule=None):
    findings = lint_source(source, module=module)
    return [f for f in findings if rule is None or f.rule == rule]


# ------------------------------------------------- RL02 (seeded-RNG half)
class TestRL02SeededRng:
    def test_module_level_random_call_is_flagged(self):
        findings = lint_one("import random\nx = random.random()\n", rule="RL02")
        assert rules_of(findings) == ["RL02"]
        assert "global" in findings[0].message

    def test_random_seed_is_flagged_everywhere(self):
        src = "import random\nrandom.seed(42)\n"
        findings = lint_one(
            src, module="repro/faults/distributions.py", rule="RL02"
        )
        assert rules_of(findings) == ["RL02"]

    def test_numpy_random_is_flagged_through_aliases(self):
        findings = lint_one(
            "import numpy as np\nx = np.random.rand(3)\n", rule="RL02"
        )
        assert rules_of(findings) == ["RL02"]

    def test_random_constructor_outside_factory_is_flagged(self):
        findings = lint_one(
            "from random import Random\nr = Random(3)\n", rule="RL02"
        )
        assert rules_of(findings) == ["RL02"]
        assert "derive_rng" in findings[0].message

    def test_random_constructor_inside_factory_is_allowed(self):
        findings = lint_one(
            "import random\n\ndef derive_rng(seed: int):\n"
            "    return random.Random(seed)\n",
            module="repro/faults/distributions.py",
            rule="RL02",
        )
        assert findings == []

    def test_derived_streams_are_clean(self):
        findings = lint_one(
            "from repro.faults.distributions import derive_rng\n"
            "rng = derive_rng('scenario', 1)\nx = rng.random()\n",
            rule="RL02",
        )
        assert findings == []


# -------------------------------------------------- RL02 (wall-clock half)
class TestRL02WallClock:
    def test_time_time_is_flagged(self):
        findings = lint_one("import time\nt = time.time()\n", rule="RL02")
        assert rules_of(findings) == ["RL02"]

    def test_datetime_now_is_flagged_via_from_import(self):
        findings = lint_one(
            "from datetime import datetime\nnow = datetime.now()\n", rule="RL02"
        )
        assert rules_of(findings) == ["RL02"]

    def test_uuid_and_urandom_are_flagged(self):
        findings = lint_one(
            "import os\nimport uuid\na = uuid.uuid4()\nb = os.urandom(8)\n",
            rule="RL02",
        )
        assert rules_of(findings) == ["RL02", "RL02"]

    def test_id_feeding_hash_is_flagged(self):
        findings = lint_one(
            "def key(x: object) -> int:\n    return hash(id(x))\n", rule="RL02"
        )
        assert rules_of(findings) == ["RL02"]

    def test_id_for_identity_sets_is_allowed(self):
        findings = lint_one(
            "def track(x, seen):\n    seen.add(id(x))\n    return id(x) in seen\n",
            rule="RL02",
        )
        assert findings == []

    def test_simulated_clock_reads_are_clean(self):
        findings = lint_one(
            "def f(engine):\n    return engine.now\n", rule="RL02"
        )
        assert findings == []


# --------------------------------------------------------------------- RL03
class TestRL03IterationOrder:
    def test_for_over_set_union_is_flagged(self):
        findings = lint_one(
            "def merge(a, b):\n"
            "    out = []\n"
            "    for key in set(a) | set(b):\n"
            "        out.append(key)\n"
            "    return out\n",
            rule="RL03",
        )
        assert rules_of(findings) == ["RL03"]
        assert "sorted()" in findings[0].message

    def test_comprehension_over_set_is_flagged(self):
        findings = lint_one(
            "def f(a):\n    return [x + 1 for x in {y for y in a}]\n",
            rule="RL03",
        )
        assert rules_of(findings) == ["RL03"]

    def test_list_of_set_typed_name_is_flagged(self):
        findings = lint_one(
            "def f(items):\n    pending = set(items)\n    return list(pending)\n",
            rule="RL03",
        )
        assert rules_of(findings) == ["RL03"]

    def test_sorted_wrapper_is_clean(self):
        findings = lint_one(
            "def merge(a, b):\n"
            "    out = []\n"
            "    for key in sorted(set(a) | set(b)):\n"
            "        out.append(key)\n"
            "    return out\n",
            rule="RL03",
        )
        assert findings == []

    def test_order_free_consumers_are_clean(self):
        findings = lint_one(
            "def f(a, b):\n"
            "    u = set(a) | set(b)\n"
            "    return max(u), len(u), sorted(x for x in u)\n",
            rule="RL03",
        )
        assert findings == []

    def test_plain_dict_iteration_is_clean(self):
        findings = lint_one(
            "def f(d):\n    return [v for v in d.values()]\n", rule="RL03"
        )
        assert findings == []


# --------------------------------------------------------------------- RL04
class TestRL04LockedWrites:
    GUARDED = "repro/campaign/example.py"

    def test_bare_write_open_in_guarded_module_is_flagged(self):
        findings = lint_one(
            "def dump(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n",
            module=self.GUARDED,
            rule="RL04",
        )
        assert rules_of(findings) == ["RL04"]
        assert "fslock" in findings[0].message

    def test_os_replace_in_guarded_module_is_flagged(self):
        findings = lint_one(
            "import os\n\ndef publish(a, b):\n    os.replace(a, b)\n",
            module=self.GUARDED,
            rule="RL04",
        )
        assert rules_of(findings) == ["RL04"]

    def test_reads_are_clean(self):
        findings = lint_one(
            "def load(path):\n"
            "    with open(path, encoding='utf-8') as fh:\n"
            "        return fh.read()\n",
            module=self.GUARDED,
            rule="RL04",
        )
        assert findings == []

    def test_atomic_write_text_is_a_sanctioned_helper(self):
        findings = lint_one(
            "from repro import fslock\n"
            "from repro.fslock import atomic_write_text, exclusive_lock\n\n"
            "def publish(path, text):\n"
            "    with exclusive_lock(path):\n"
            "        atomic_write_text(path, text)\n"
            "        fslock.atomic_write_text(path, text)\n",
            module=self.GUARDED,
            rule="RL04",
        )
        assert findings == []

    def test_path_write_text_is_flagged_and_names_the_helper(self):
        findings = lint_one(
            "from pathlib import Path\n\n"
            "def publish(path, text):\n"
            "    Path(path).write_text(text)\n",
            module=self.GUARDED,
            rule="RL04",
        )
        assert rules_of(findings) == ["RL04"]
        assert "atomic_write_text" in findings[0].message

    def test_unguarded_modules_may_write_directly(self):
        findings = lint_one(
            "def dump(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n",
            module="repro/analysis/example.py",
            rule="RL04",
        )
        assert findings == []

    def test_fslock_module_itself_is_exempt(self):
        findings = lint_one(
            "import os\n\ndef atomic(a, b):\n    os.replace(a, b)\n",
            module="repro/fslock.py",
            rule="RL04",
        )
        assert findings == []


# --------------------------------------------------------------------- RL08
class TestRL08EqualTimeTies:
    def test_per_element_fanout_at_constant_time_is_flagged(self):
        src = (
            "def arm(self, events):\n"
            "    for event in events:\n"
            "        self.sim.engine.schedule(0.0, self._fire, event)\n"
        )
        findings = lint_one(src, rule="RL08")
        assert rules_of(findings) == ["RL08"]
        assert "tie" in findings[0].message

    def test_loop_invariant_name_time_is_flagged(self):
        src = (
            "def arm(self, events, delay):\n"
            "    for event in events:\n"
            "        self.engine.schedule(delay, self._fire, event)\n"
        )
        findings = lint_one(src, rule="RL08")
        assert rules_of(findings) == ["RL08"]

    def test_schedule_at_with_invariant_absolute_time_is_flagged(self):
        src = (
            "def arm(self, events, when):\n"
            "    for event in events:\n"
            "        self.engine.schedule_at(when, self._fire, event)\n"
        )
        findings = lint_one(src, rule="RL08")
        assert rules_of(findings) == ["RL08"]

    def test_handle_free_post_fanout_is_flagged(self):
        src = (
            "def arm(self, events):\n"
            "    for event in events:\n"
            "        self.sim.engine.post(0.0, self._fire, event)\n"
        )
        findings = lint_one(src, rule="RL08")
        assert rules_of(findings) == ["RL08"]
        assert "engine.post()" in findings[0].message

    def test_handle_free_post_of_one_batched_event_is_clean(self):
        src = (
            "def arm(self, events):\n"
            "    self.sim.engine.post(0.0, self._fire_batch, list(events))\n"
            "    for index, event in enumerate(events):\n"
            "        self.sim.engine.post(index * 1e-9, self._fire, event)\n"
        )
        assert lint_one(src, rule="RL08") == []

    def test_per_element_time_is_clean(self):
        src = (
            "def arm(self, events):\n"
            "    for index, event in enumerate(events):\n"
            "        self.engine.schedule(index * 1e-9, self._fire, event)\n"
        )
        assert lint_one(src, rule="RL08") == []

    def test_computed_time_is_exempt(self):
        # A call in the time expression may vary per iteration; stay quiet.
        src = (
            "def arm(self, events):\n"
            "    for event in events:\n"
            "        self.engine.schedule(self.delay_for(event), self._fire, event)\n"
        )
        assert lint_one(src, rule="RL08") == []

    def test_batched_event_is_clean(self):
        src = (
            "def arm(self, events):\n"
            "    self.sim.engine.schedule(0.0, self._fire_batch, list(events))\n"
        )
        assert lint_one(src, rule="RL08") == []

    def test_set_iterable_fanout_is_rl03s_finding(self):
        # Hash order becoming dispatch order is flagged once, on the `for`.
        src = (
            "def arm(self):\n"
            "    ranks = {1, 2, 3}\n"
            "    for rank in ranks:\n"
            "        self.engine.schedule(self.delay_for(rank), self._fire, rank)\n"
        )
        findings = lint_one(src)
        assert rules_of(findings) == ["RL03"]
        assert findings[0].line == 3

    def test_non_engine_schedule_is_ignored(self):
        src = (
            "def arm(self, jobs):\n"
            "    for job in jobs:\n"
            "        self.campaign.schedule(0.0, run, job)\n"
        )
        assert lint_one(src, rule="RL08") == []

    def test_inner_loop_owns_the_call(self):
        # Outer loop variable in the delay: invariant w.r.t. the inner loop.
        src = (
            "def arm(self, groups):\n"
            "    for offset in range(3):\n"
            "        for event in self.groups[offset]:\n"
            "            self.engine.schedule(offset * 0.1, self._fire, event)\n"
        )
        findings = lint_one(src, rule="RL08")
        assert rules_of(findings) == ["RL08"]


# --------------------------------------------------------------- exemptions
WALL_CLOCK_MODULES = ["repro/experiments/timed.py", "benchmarks/observatory/clock.py"]


class TestExemptions:
    @pytest.mark.parametrize("module", WALL_CLOCK_MODULES)
    @pytest.mark.parametrize("clock", ["perf_counter", "process_time"])
    def test_wall_clock_modules_may_read_host_clocks(self, module, clock):
        src = f"import time\nt = time.{clock}()\n"
        assert lint_one(src, module=module) == []

    @pytest.mark.parametrize(
        "module", ["repro/experiments/registry.py", "benchmarks/observatory/workloads.py"]
    )
    def test_their_neighbours_may_not(self, module):
        findings = lint_one("import time\nt = time.perf_counter()\n", module=module)
        assert rules_of(findings) == ["RL02"]

    @pytest.mark.parametrize(
        "src",
        [
            "import random\nx = random.random()\n",
            "import datetime\nx = datetime.datetime.now()\n",
            "import uuid\nx = uuid.uuid4()\n",
        ],
        ids=["random", "datetime", "uuid"],
    )
    def test_exemption_covers_host_clocks_only(self, src):
        for module in WALL_CLOCK_MODULES:
            assert rules_of(lint_one(src, module=module)) == ["RL02"]

    @pytest.mark.parametrize(
        "src",
        [
            "import time\n"
            "x = time.time()  # repro-lint: disable=RL02 -- wall time for a banner\n",
            "import time\n"
            "x = (\n"
            "    time.time()\n"
            ")  # repro-lint: disable=RL02 -- wall time for a banner\n",
            "import time\n"
            "x = (\n"
            "    time.time()  # repro-lint: disable=RL02 -- wall time for a banner\n"
            ")\n",
            "import time\n"
            "# repro-lint: disable=RL02 -- wall time for a banner\n"
            "x = time.time()\n",
        ],
        ids=["trailing", "multiline-last-line", "multiline-inner-line", "standalone"],
    )
    def test_an_inline_directive_silences_nothing(self, src):
        assert rules_of(lint_one(src)) == ["RL02"]

    @pytest.mark.parametrize("absolute", [False, True])
    def test_benchmark_files_are_named_from_benchmarks_down(self, absolute):
        path = os.path.join("benchmarks", "observatory", "clock.py")
        if absolute:
            path = os.path.join(REPO_ROOT, path)
        assert module_name_for(path) == "benchmarks/observatory/clock.py"


# ----------------------------------------------------------------- framework
class TestFramework:
    def test_all_rules_are_registered(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == ["RL02", "RL03", "RL04", "RL08"]
        for rule in all_rules():
            assert rule.invariant and rule.rationale

    def test_findings_are_sorted_and_renderable(self):
        findings = lint_one(
            "import time\nimport random\n"
            "a = random.random()\nb = time.time()\n"
        )
        assert findings == sorted(findings, key=Finding.sort_key)
        rendered = findings[0].render()
        assert rendered.startswith("<fixture>:3:")

    def test_missing_path_is_a_usage_error_not_a_clean_run(self, tmp_path, capsys):
        # A gate must not pass on a mistyped path.
        missing = str(tmp_path / "no" / "such" / "dir")
        with pytest.raises(FileNotFoundError):
            run_lint([missing])
        assert lint_main([missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro-lint: error: {missing}: no such file or directory\n"
        )
        existing = tmp_path / "ok.py"
        existing.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(existing), str(tmp_path / "gone.py")]) == 2

    def test_undecodable_file_is_a_usage_error(self, tmp_path, capsys):
        latin = tmp_path / "latin.py"
        latin.write_bytes(b'x = "\xff"\n')
        assert lint_main([str(latin)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-lint: error: 'utf-8' codec")


# --------------------------------------------------------------- the tree
class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        findings, files_checked = run_lint([SRC_REPRO])
        assert files_checked > 100
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exits_zero_on_shipped_tree(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", SRC_REPRO],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_cli_list_rules(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        listed = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert listed.returncode == 0
        ids = [line.split()[0] for line in listed.stdout.splitlines() if line[:2] == "RL"]
        assert ids == ["RL02", "RL03", "RL04", "RL08"]

    @pytest.mark.parametrize("flag", [["--select", "RL03"], ["--format", "json"]])
    def test_removed_flags_are_usage_errors(self, flag, tmp_path, capsys):
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exited:
            lint_main([*flag, str(ok)])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

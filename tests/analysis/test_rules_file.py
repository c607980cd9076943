"""Per-file rules: REP001 (RNG), REP002 (hot alloc), REP003 (atomic), REP007 (print)."""


def findings_for(report, rule_id):
    return [f for f in report.new_findings if f.rule_id == rule_id]


# -- REP001: RNG discipline ---------------------------------------------------


def test_rep001_flags_numpy_global_calls(check):
    source = """\
        import numpy as np

        def bad():
            np.random.seed(0)
            return np.random.rand(3)
    """
    report = check({"src/mod.py": source})
    found = findings_for(report, "REP001")
    assert len(found) == 2
    assert any("np.random.seed" in f.message for f in found)
    assert any("np.random.rand" in f.message for f in found)
    assert found[0].symbol == "bad"


def test_rep001_allows_explicit_generator_constructors(check):
    source = """\
        import numpy as np
        import random

        def good(seed):
            rng = np.random.default_rng(seed)
            seq = np.random.SeedSequence(seed)
            local = random.Random(seed)
            return rng, seq, local
    """
    report = check({"src/mod.py": source})
    assert findings_for(report, "REP001") == []


def test_rep001_flags_randomstate_and_stdlib_globals(check):
    source = """\
        import numpy as np
        import random

        def bad():
            state = np.random.RandomState(0)
            random.seed(7)
            return state, random.randint(0, 9)
    """
    report = check({"src/mod.py": source})
    assert len(findings_for(report, "REP001")) == 3


def test_rep001_flags_names_imported_from_rng_modules(check):
    source = """\
        from numpy.random import seed
        from random import shuffle

        def bad(items):
            seed(0)
            shuffle(items)
    """
    report = check({"src/mod.py": source})
    assert len(findings_for(report, "REP001")) == 2


def test_rep001_exempts_the_rng_module_itself(check):
    source = """\
        import numpy as np

        def reseed_global(seed):
            np.random.seed(seed)
    """
    report = check({"src/repro/utils/rng.py": source})
    assert findings_for(report, "REP001") == []


RAW_CONSTRUCTORS = """\
    import numpy as np
    from numpy.random import default_rng

    def fresh(seed):
        return np.random.default_rng(seed), default_rng(seed)
"""


def test_rep001_flags_raw_constructors_in_infrastructure_packages(check):
    report = check({"src/repro/cluster/mod.py": RAW_CONSTRUCTORS})
    found = findings_for(report, "REP001")
    assert len(found) == 2
    assert all("raw generator construction" in f.message for f in found)


def test_rep001_allows_raw_constructors_outside_infrastructure(check):
    report = check({"src/repro/eval/mod.py": RAW_CONSTRUCTORS})
    assert findings_for(report, "REP001") == []


# -- REP002: hot-path allocation lint -----------------------------------------


def test_rep002_flags_banned_calls_only_under_the_marker(check):
    source = """\
        import numpy as np
        from repro.utils.markers import hot_path

        @hot_path
        def hot(values):
            flat = np.unique(values)
            both = np.union1d(flat, values)
            return both.tolist()

        def cold(values):
            return np.unique(values)
    """
    report = check({"src/mod.py": source})
    found = findings_for(report, "REP002")
    assert len(found) == 3
    assert all("hot" in f.message for f in found)


def test_rep002_nested_functions_inherit_the_marker(check):
    source = """\
        import numpy as np
        from repro.utils.markers import hot_path

        @hot_path
        def hot(values):
            def inner():
                return np.append(values, 0)
            return inner()
    """
    report = check({"src/mod.py": source})
    assert len(findings_for(report, "REP002")) == 1


def test_rep002_clean_hot_function_passes(check):
    source = """\
        import numpy as np
        from repro.utils.arrays import sorted_unique
        from repro.utils.markers import hot_path

        @hot_path
        def hot(values):
            return sorted_unique(np.asarray(values))
    """
    report = check({"src/mod.py": source})
    assert findings_for(report, "REP002") == []


# -- REP003: atomic-write discipline ------------------------------------------

RAW_WRITE = """\
    def publish(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("x")
"""


def test_rep003_flags_truncate_open_in_scoped_modules(check):
    report = check({"src/repro/cluster/mod.py": RAW_WRITE})
    found = findings_for(report, "REP003")
    assert len(found) == 1
    assert "atomic_write_" in found[0].message


def test_rep003_ignores_the_same_code_outside_scope(check):
    report = check({"src/repro/eval/mod.py": RAW_WRITE})
    assert findings_for(report, "REP003") == []


def test_rep003_allows_reads_and_appends(check):
    source = """\
        def consume(path, shard):
            with open(path, "r", encoding="utf-8") as handle:
                data = handle.read()
            with open(shard, "ab") as handle:
                handle.write(b"line")
            return data
    """
    report = check({"src/repro/cluster/mod.py": source})
    assert findings_for(report, "REP003") == []


def test_rep003_treats_dynamic_modes_and_pathlib_writers_as_suspect(check):
    source = """\
        def publish(path, mode, target):
            with open(path, mode) as handle:
                handle.write("x")
            target.write_text("y")
    """
    report = check({"src/repro/runtime/store.py": source})
    assert len(findings_for(report, "REP003")) == 2


def test_rep003_exempts_the_serialization_helpers_themselves(check):
    report = check({"src/repro/utils/serialization.py": RAW_WRITE})
    assert findings_for(report, "REP003") == []


# -- REP007: no print in library modules --------------------------------------


def test_rep007_flags_print_in_library_modules(check):
    source = """\
        def work(items):
            print("processed", len(items))
            return items
    """
    report = check({"src/repro/runtime/mod.py": source})
    found = findings_for(report, "REP007")
    assert len(found) == 1
    assert "repro.telemetry" in found[0].message
    assert found[0].symbol == "work"


def test_rep007_exempts_clis_main_shims_and_out_of_scope_files(check):
    source = """\
        def render():
            print("status: ok")
    """
    report = check(
        {
            "src/repro/cluster/cli.py": source,
            "src/repro/analysis/cli.py": source,
            "src/repro/telemetry/report.py": source,
            "src/repro/biterror/__main__.py": source,
            "src/tool.py": source,  # outside src/repro: not library code
        }
    )
    assert findings_for(report, "REP007") == []


def test_rep007_ignores_shadowed_and_attribute_prints(check):
    source = """\
        class Printer:
            def print(self, text):
                return text

        def use(printer, print):
            printer.print("attribute call is not the builtin")
            print("shadowed local callable")
    """
    report = check({"src/repro/utils/mod.py": source})
    # An attribute `.print()` is some object's API; a call through a local
    # binding named ``print`` is still the builtin pattern readers expect,
    # so the rule flags only the bare-name form.
    assert len(findings_for(report, "REP007")) == 1

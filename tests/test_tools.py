import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    path = os.path.join(ROOT, "tools", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_lists_identical_files_and_coefficient_differences(tmp_path, capsys):
    ref = load_tool("reference_outputs")

    def element(*terms):
        return {"N": 2, "terms": [{"idx": idx, "c": c} for idx, c in terms]}

    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "same.log").write_text("exit 0\n")
    # a term that rounds to an exact zero disappears from the new file
    (old / "g.json").write_text(json.dumps({"g": [element(([], 2.0), ([1, 2], 1e-17))]}))
    (new / "g.json").write_text(json.dumps({"g": [element(([], 2.0 + 4.4e-16))]}))
    (old / "t.csv").write_text("a,b\n1.0,x\n")
    (new / "t.csv").write_text("a,b\n1.0,y\n")
    # keys on one side only (an empty list too) are named; the leaf both hold is still measured
    (old / "r.json").write_text(json.dumps({"growth": [1.0], "n": 4.0, "violations": []}))
    (new / "r.json").write_text(json.dumps({"n": 4.0 + 8.9e-16, "added": {"x": 1}}))
    (old / "gone.log").write_text("")

    ref.compare(str(old), str(new))
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["1 byte-identical:", "  same.log"]
    assert "  gone.log" in out[out.index(f"1 only in {old}:"):]
    diffs = out[out.index("3 differing:") + 1:]
    assert diffs == [
        "  g.json  max relative difference 2.22e-16",
        "  r.json  only in old: growth/0, violations; only in new: added/x; max relative difference 2.22e-16",
        "  t.csv  not numbers: 1/1; max relative difference 0",
    ]


SYNTHETIC = """\
import functools


def called():
    return 1


@functools.lru_cache(maxsize=None)
def cached(x):
    return x


class K:
    def method(self):
        def nested():
            return 2
        return nested()

    @property
    def prop(self):
        return 3
"""


def test_reachability_attributes_lines_to_the_functions_called(tmp_path):
    reach = load_tool("reachability")
    path = tmp_path / "superflip" / "mod.py"
    path.parent.mkdir()
    path.write_text(SYNTHETIC)
    ns = {}
    exec(compile(SYNTHETIC, str(path), "exec"), ns)
    nested = next(c for c in ns["K"].method.__code__.co_consts if getattr(c, "co_name", "") == "nested")
    # a decorated function's code and a nested function's code, but not the method around it
    codes = [ns["cached"].__wrapped__.__code__, ns["K"].prop.fget.__code__, nested]
    called = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    assert reach.unreached(str(tmp_path), called) == [
        (os.path.join("superflip", "mod.py"), "called", 2),
        (os.path.join("superflip", "mod.py"), "K.method", 4),
    ]

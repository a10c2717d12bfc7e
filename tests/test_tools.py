import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_reference_outputs():
    path = os.path.join(ROOT, "tools", "reference_outputs.py")
    spec = importlib.util.spec_from_file_location("reference_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_lists_identical_files_and_coefficient_differences(tmp_path, capsys):
    ref = load_reference_outputs()

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
    (old / "r.json").write_text(json.dumps({"growth": [1.0]}))
    (new / "r.json").write_text(json.dumps({}))
    (old / "gone.log").write_text("")

    ref.compare(str(old), str(new))
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["1 byte-identical:", "  same.log"]
    assert "  gone.log" in out[out.index(f"1 only in {old}:"):]
    diffs = out[out.index("3 differing:") + 1:]
    assert diffs == [
        "  g.json  max relative difference 2.22e-16",
        "  r.json  structure differs",
        "  t.csv  structure differs",
    ]

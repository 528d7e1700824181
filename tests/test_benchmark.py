import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SPAN_METRICS = ("calls", "self_s", "p50_us", "p99_us")


def test_every_per_layer_function_resolves():
    # a traced benchmark run raises KeyError for a per-layer name whose
    # function is gone, renamed or made private
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    funcs = sorted({n.rsplit(".", 1)[0] for n in names
                    if n.rsplit(".", 1)[1] in SPAN_METRICS})
    assert len(funcs) >= 20
    for name in funcs:
        mod_name, fn_name = name.split(".")
        mod = importlib.import_module(f"confocal.{mod_name}")
        fn = getattr(mod, fn_name, None)
        assert not fn_name.startswith("_"), name
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name

"""Bench: closed-form model vs simulation for all five architectures.

Prints the predicted/measured zero-load latency per network and asserts the
15 % agreement band -- the cross-validation that ties the analytical layer
to the cycle simulator.
"""

from repro.analysis.model import PREDICTORS
from repro.analysis.sweep import run_point
from repro.runtime import NAMED_TOPOLOGIES


def _validate():
    rows = []
    for name in sorted(PREDICTORS):
        pred = PREDICTORS[name]()
        point = run_point(NAMED_TOPOLOGIES[name], "UN", 0.01, cycles=700, warmup=250)
        rows.append((name, pred.zero_load_latency, point.latency,
                     pred.saturation_rate, pred.binding_resource))
    return rows


def test_model_validation(benchmark):
    rows = benchmark.pedantic(_validate, rounds=1, iterations=1)
    print()
    print(f"{'network':10s} {'T0 pred':>8s} {'T0 meas':>8s} {'sat pred':>9s}  binding")
    for name, t0p, t0m, sat, binding in rows:
        print(f"{name:10s} {t0p:8.1f} {t0m:8.1f} {sat:9.4f}  {binding}")
        assert abs(t0p / t0m - 1.0) < 0.15, (name, t0p, t0m)
    # The model reproduces the latency ranking: OWN fastest, OptXB/CMESH
    # slowest (token + serialization vs hop count).
    by_pred = sorted(rows, key=lambda r: r[1])
    assert by_pred[0][0] == "own256"

"""Bench: the route-walk model vs simulation on all ten named networks.

Prints the predicted/measured zero-load latency, the saturation bound and
its binding channel per network, and asserts the 15 % latency band and the
saturation bracket (accepted fraction > 0.9 at 0.75x the bound, < 0.97 at
1.3x) -- the cross-validation that ties the analytical layer to the cycle
simulator. Zero-load latency is measured at a fifth of each network's
bound, so queueing adds little: at a fixed 0.01 OWN-1024 (bound 0.0104)
would be measured at its knee.
"""

import time

from repro.analysis.model import predict
from repro.analysis.sweep import run_point
from repro.runtime import NAMED_TOPOLOGIES, build_ref


def _validate():
    rows = []
    for name in sorted(NAMED_TOPOLOGIES):
        built = build_ref(NAMED_TOPOLOGIES[name])
        start = time.perf_counter()
        pred = predict(built)
        walk_s = time.perf_counter() - start
        rate = 0.2 * pred.saturation_rate
        ref = NAMED_TOPOLOGIES[name]
        point = run_point(ref, "UN", rate, cycles=700, warmup=250)
        below, above = (
            run_point(ref, "UN", pred.saturation_rate * factor, cycles=1000, warmup=300)
            for factor in (0.75, 1.3)
        )
        rows.append((name, pred.zero_load_latency, point.latency, rate,
                     pred.saturation_rate, below.accepted_fraction,
                     above.accepted_fraction, pred.binding_resource, walk_s))
    return rows


def test_model_validation(benchmark):
    rows = benchmark.pedantic(_validate, rounds=1, iterations=1)
    print()
    print(f"{'network':10s} {'T0 pred':>8s} {'T0 meas':>8s} {'at rate':>8s} "
          f"{'sat pred':>9s} {'acc.75x':>8s} {'acc1.3x':>8s} {'walk s':>7s}  binding")
    for name, t0p, t0m, rate, sat, below, above, binding, walk_s in rows:
        print(f"{name:10s} {t0p:8.2f} {t0m:8.2f} {rate:8.4f} {sat:9.4f} "
              f"{below:8.3f} {above:8.3f} {walk_s:7.2f}  {binding}")
        assert abs(t0p / t0m - 1.0) < 0.15, (name, t0p, t0m)
        assert below > 0.9 and above < 0.97, (name, below, above)
    # The model reproduces the 256-core latency ranking: OWN fastest. (At
    # 1024 p-Clos's two photonic hops beat OWN's photonic-wireless-photonic
    # path, predicted and measured alike.)
    fastest = min((r for r in rows if r[0].endswith("256")), key=lambda r: r[1])
    assert fastest[0] == "own256"

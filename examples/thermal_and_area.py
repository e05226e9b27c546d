#!/usr/bin/env python
"""Physical-design view: silicon area and steady-state thermals.

The paper's scalability case against monolithic photonic crossbars is
physical, not just architectural: component count drives silicon area,
insertion loss drives laser power, and thermal gradients drive ring-tuning
power. This example renders all three for the compared architectures,
ending with an ASCII heat map of OWN-256 under load.

Run:  python examples/thermal_and_area.py
"""

from repro.analysis import (
    study_area_scaling,
    study_component_scaling,
    study_thermal,
)
from repro.runtime import Executor, RunSpec, build_ref
from repro.thermal import thermal_report


def main() -> None:
    print(study_component_scaling().rendered)
    comp = study_component_scaling().notes
    print(f"worst-path insertion loss: OWN cluster snake "
          f"{comp['own_cluster_path_loss_db']:.1f} dB vs monolithic 64-router "
          f"snake {comp['optxb_snake_path_loss_db']:.1f} dB")
    print("-> the loss wall is why the paper decomposes the crossbar.\n")

    print(study_area_scaling().rendered)
    print(study_thermal(quick=True).rendered)

    # Heat map of OWN-256 under uniform traffic: the run's activity record,
    # placed on a fresh build's floorplan.
    spec = RunSpec.create("own256", pattern="UN", rate=0.03, cycles=1000, seed=2)
    run = Executor().run_one(spec)
    rep = thermal_report(build_ref("own256"), run.activity)
    print(f"OWN-256 thermal map (peak {rep.peak_c:.1f} C, "
          f"gradient {rep.gradient_c:.1f} C, ring tuning "
          f"{rep.tuning_power_w * 1e3:.1f} mW):\n")
    print(rep.heatmap)
    print("\nHot cells are the wireless gateway corners of each cluster --")
    print("the load the corner placement deliberately spreads (Sec. III-A).")


if __name__ == "__main__":
    main()

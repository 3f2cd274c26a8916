"""Drop a sphere onto the learned path and watch the tube reroute around it.

The primitive keeps playing internally while every issued command is
projected out of the obstacle's clearance region (radius plus half the tube
width), so the executed path hugs the clearance boundary and re-joins the
nominal plan on the far side.  Prints clearance statistics and writes the
nominal and executed paths to CSV.
"""

import pathlib

import numpy as np

from safedmp import bench, dmp, safe_exec, trajectory

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def main():
    demo = trajectory.preprocess(trajectory.load_demo("builtin:sshape"))
    model = dmp.learn_from_trajectory(demo)
    nominal = dmp.rollout(model, 0.005)

    rng = np.random.default_rng(7)
    obstacle = bench.random_static_blocker(nominal.trajectory, rng)
    clearance = obstacle.radius + 0.05
    nominal_min = min(
        np.linalg.norm(p - obstacle.center0) for p in nominal.trajectory.points
    )
    print(f"obstacle: center {np.round(obstacle.center0, 3)}, "
          f"radius {obstacle.radius:.3f} m, clearance region {clearance:.3f} m")
    print(f"the nominal path passes {nominal_min:.3f} m from the center "
          f"(inside the clearance region: {nominal_min < clearance})")

    engine = safe_exec.SafeDmpEngine(model, obstacles=[obstacle], dt=0.005)
    log = safe_exec.run(engine)
    print(f"execution: converged={log.converged} in {log.steps} steps "
          f"({log.steps * log.dt:.2f} s)")
    print(f"closest measured approach to the surface: "
          f"{log.min_surface_clearance():.4f} m (never below zero)")

    free = safe_exec.run(safe_exec.SafeDmpEngine(model, dt=0.005))
    overhead = bench.convergence_time_oa(log.time_to_goal(), free.time_to_goal(), 1)
    print(f"extra time to goal attributable to the detour: {overhead:.3f} s")

    np.savetxt(OUT / "detour_nominal.csv",
               np.column_stack([nominal.trajectory.times,
                                nominal.trajectory.points]),
               delimiter=",", header="t,x0,x1,x2", comments="")
    np.savetxt(OUT / "detour_executed.csv",
               np.column_stack([log.t, log.x_measured]),
               delimiter=",", header="t,x0,x1,x2", comments="")
    print(f"wrote {OUT / 'detour_nominal.csv'} and {OUT / 'detour_executed.csv'}")


if __name__ == "__main__":
    main()

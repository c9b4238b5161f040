#!/usr/bin/env python3
"""Accuracy / execution-time sweep over window sizes on a synthetic scene.

Reproduces the benchmark trade-off study: larger windows amortize the dense
flow computation over more frames (faster) but propagate the stochastic
model further from its seeding point (less accurate).

    python scripts/window_sweep.py --frames 100 --out sweep.csv
"""

import argparse

from flowseg import PipelineConfig, bench_compare, generate_scene, preset_scene


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="one-way")
    parser.add_argument("--frames", type=int, default=100)
    parser.add_argument("--min-window", type=int, default=3)
    parser.add_argument("--max-window", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="CSV output path")
    args = parser.parse_args(argv)

    scene = generate_scene(preset_scene(args.preset, frame_count=args.frames))
    cfg = PipelineConfig(window_size=args.min_window, seed=args.seed)
    report = bench_compare(
        scene.frames,
        scene.masks,
        cfg,
        window_sizes=tuple(range(args.min_window, args.max_window + 1)),
        repeats=args.repeats,
    )
    print(report.table())
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

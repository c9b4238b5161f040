#!/usr/bin/env python3
"""Force-model ablation on a synthetic scene.

Runs the pipeline once per force combination (damping, drift/confinement,
random disturbance; every subset except all-off, 7 in total) and reports
the mean ground-truth coverage of each, showing what each force family
contributes to keeping propagated groups on target.

    python scripts/force_ablation.py --frames 40
"""

import argparse
import csv
import itertools

from flowseg import ForceAblation, PipelineConfig, generate_scene, preset_scene, report, segment_video

LABELS = ("damping", "drift/confine", "disturbance")


def combo_name(toggles) -> str:
    on = [label for label, enabled in zip(LABELS, toggles) if enabled]
    return " + ".join(on)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="one-way")
    parser.add_argument("--frames", type=int, default=40)
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="CSV output path")
    args = parser.parse_args(argv)

    scene = generate_scene(preset_scene(args.preset, frame_count=args.frames))
    ground_truth = dict(enumerate(scene.masks, start=1))
    rows = []
    for toggles in itertools.product((True, False), repeat=3):
        if not any(toggles):
            continue
        cfg = PipelineConfig(
            window_size=args.window,
            seed=args.seed,
            ablation=ForceAblation(*toggles),
        )
        run = segment_video(scene.frames, cfg)
        rows.append((combo_name(toggles), report(run, ground_truth, cfg.dilation_radius).mean_accuracy))

    width = max(len(name) for name, _ in rows)
    for name, score in sorted(rows, key=lambda r: -r[1]):
        print(f"{name:<{width}}  mean accuracy {score:.4f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["forces", "mean_accuracy"])
            writer.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

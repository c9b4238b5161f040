"""The benchmark workloads and their seeded input videos.

A video is a concatenation of short synthetic clips. Each clip is a
``flowseg.synth`` scene whose length is a multiple of the window size, so
every window lies inside one clip, and whose blocks stay wholly inside the
frame for the clip's whole length. Only the benchmark seed feeds this
module; the program under test sees the generated frames and nothing else.
"""

from dataclasses import dataclass

import numpy as np

from flowseg.synth import BlockSpec, SceneSpec, generate_scene

WIDTH, HEIGHT = 320, 240

# Eight motion directions, each with integer components so that every
# frame-to-frame displacement equals the ground-truth velocity exactly.
DIRECTIONS = ((2, 0), (2, 2), (0, 2), (-2, 2), (-2, 0), (-2, -2), (0, -2), (2, -2))


@dataclass(frozen=True)
class Workload:
    """One input shape and the code path that consumes it.

    ``via`` is ``"cli"`` for an in-process ``flowseg segment`` call over a
    PGM frame directory, or ``"stream"`` for draining ``stream_windows``
    over frames held in memory.
    """

    name: str
    kind: str
    window: int
    clips: int
    clip_length: int
    via: str
    noise_level: float = 0.0


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("flow-bound-w3", "one-way", window=3, clips=8, clip_length=12, via="cli"),
        Workload("crowd-w10", "crowd", window=10, clips=16, clip_length=10, via="cli"),
        # 50 clips of two windows: 100 distinct windows, so p90 has ten above it.
        Workload("stream-w5", "two-way", window=5, clips=50, clip_length=10, via="stream", noise_level=6.0),
    )
}


@dataclass
class Video:
    """Frames, ground-truth masks and flows of concatenated clips.

    ``flows[i]`` is the exact flow from frame ``i`` to ``i + 1`` (0-based)
    where ``i`` starts a window, and None elsewhere, which includes every
    pair that crosses a clip boundary. Flow is kept only where windows
    seed, to bound memory on long videos.
    """

    frames: list
    masks: list
    flows: list
    clip_length: int
    specs: list

    def clip(self, number: int) -> list:
        """The frames of clip ``number`` (0-based)."""
        return self.frames[number * self.clip_length : (number + 1) * self.clip_length]


def _texture_seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def one_way_clip(rng, frames: int) -> SceneSpec:
    """The ``one-way`` preset's tall block at a random place and heading."""
    bw, bh = 80, 120
    travel = 2 * (frames - 1)
    vx = 2 if rng.random() < 0.5 else -2
    x_lo, x_hi = (0, WIDTH - bw - travel) if vx > 0 else (travel, WIDTH - bw)
    x = int(rng.integers(x_lo, x_hi + 1))
    y = int(rng.integers(0, HEIGHT - bh + 1))
    bg, tex = _texture_seeds(rng, 2)
    block = BlockSpec(rect=(x, y, bw, bh), velocity=(float(vx), 0.0), texture_seed=tex)
    return SceneSpec(WIDTH, HEIGHT, frames, (block,), background_seed=bg)


def two_way_clip(rng, frames: int, noise_level: float) -> SceneSpec:
    """The ``two-way`` preset: two blocks moving in opposite directions,
    one in each half of the frame, with sensor noise."""
    bw, bh = 80, 60
    travel = 2 * (frames - 1)
    blocks = []
    seeds = _texture_seeds(rng, 3)
    for half, vx in ((0, 2), (1, -2)):
        x_lo, x_hi = (0, WIDTH - bw - travel) if vx > 0 else (travel, WIDTH - bw)
        x = int(rng.integers(x_lo, x_hi + 1))
        y = int(rng.integers(half * HEIGHT // 2, (half + 1) * HEIGHT // 2 - bh + 1))
        blocks.append(
            BlockSpec(rect=(x, y, bw, bh), velocity=(float(vx), 0.0), texture_seed=seeds[half + 1])
        )
    return SceneSpec(
        WIDTH, HEIGHT, frames, tuple(blocks), background_seed=seeds[0], noise_level=noise_level
    )


def crowd_clip(rng, frames: int) -> SceneSpec:
    """Twelve blocks on a 4x3 grid of cells, all eight directions present.

    The four axis directions get two blocks each and the diagonals one, so
    the orientation histogram has the same peaks whatever the seed; the
    seed shuffles which cell moves which way, places each block and picks
    the textures. Each block starts where its whole path stays inside its
    own cell, so blocks never overlap one another or leave the frame.
    """
    cols, rows = 4, 3
    cw, ch = WIDTH // cols, HEIGHT // rows
    bw, bh = 40, 40
    headings = [0, 0, 2, 2, 4, 4, 6, 6, 1, 3, 5, 7]
    rng.shuffle(headings)
    seeds = _texture_seeds(rng, cols * rows + 1)
    blocks = []
    for cell, heading in enumerate(headings):
        vx, vy = DIRECTIONS[heading]
        tx, ty = vx * (frames - 1), vy * (frames - 1)
        cx, cy = (cell % cols) * cw, (cell // cols) * ch
        x = int(rng.integers(cx + max(0, -tx), cx + cw - bw - max(0, tx) + 1))
        y = int(rng.integers(cy + max(0, -ty), cy + ch - bh - max(0, ty) + 1))
        blocks.append(
            BlockSpec(rect=(x, y, bw, bh), velocity=(float(vx), float(vy)), texture_seed=seeds[cell + 1])
        )
    return SceneSpec(WIDTH, HEIGHT, frames, tuple(blocks), background_seed=seeds[0])


def clip_specs(workload: Workload, seed: int) -> list[SceneSpec]:
    """The workload's clips for ``seed``; equal seeds give equal clips."""
    rng = np.random.default_rng([seed, 0x5EED])
    length = workload.clip_length
    if workload.kind == "one-way":
        return [one_way_clip(rng, length) for _ in range(workload.clips)]
    if workload.kind == "two-way":
        return [two_way_clip(rng, length, workload.noise_level) for _ in range(workload.clips)]
    if workload.kind == "crowd":
        return [crowd_clip(rng, length) for _ in range(workload.clips)]
    raise ValueError(f"unknown clip kind {workload.kind!r}")


def build_video(specs: list[SceneSpec], window: int) -> Video:
    lengths = {spec.frame_count for spec in specs}
    if len(lengths) != 1 or lengths.pop() % window:
        raise ValueError(f"clips must share one length that is a multiple of {window}")
    frames, masks, flows = [], [], []
    for spec in specs:
        scene = generate_scene(spec)
        if scene.truncated:
            raise ValueError(f"clip {spec} leaves the frame")
        frames.extend(scene.frames)
        masks.extend(scene.masks)
        flows.extend(f if t % window == 0 else None for t, f in enumerate(scene.flows))
        flows.append(None)
    flows.pop()
    return Video(frames=frames, masks=masks, flows=flows, clip_length=specs[0].frame_count, specs=specs)

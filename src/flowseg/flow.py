"""Dense optical flow between two grayscale frames.

The estimator is a coarse-to-fine pyramidal least-squares flow:

1. Both frames are reduced by the integer ``downscale`` factor (block mean),
   so all downstream processing runs at that resolution.
2. A Gaussian pyramid is built per frame; levels whose short side would
   fall below 8 px are dropped.
3. From the coarsest level down, the current flow warps the second frame
   onto the first and a windowed 2x2 normal-equation solve (classic
   Lucas-Kanade least squares over a square window) yields an incremental
   update; a few warp/solve iterations run per level and the flow is
   upsampled (x2) between levels.
4. The finished field is median-filtered (7x7) to suppress the isolated
   outliers that warping produces along occlusion edges.
5. At the finest level the structure tensor's smaller eigenvalue decides
   per-pixel validity: flat or single-gradient neighborhoods (aperture
   cases) are marked invalid and their flow is zeroed.

The estimator promises accurate *rigid translation* recovery (the pipeline
only ever consumes flow statistics over dense textured regions); it makes
no claims near occlusions or for large rotations.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InputError
from .io import FlowField, Frame

MIN_LEVEL_SIZE = 8
# Floor for the window-averaged weaker eigenvalue of the structure tensor,
# in squared intensity units per pixel; below it a pixel is invalid.
TEXTURE_EIGEN_FLOOR = 1.0
_DET_EPS = 1e-6
_MEDIAN_SIZE = 7


@dataclass(frozen=True)
class FlowParams:
    # window_radius 4 keeps motion boundaries tight; wider windows smear
    # the magnitude transition at object edges and make segment borders
    # depend on local texture contrast.
    pyramid_levels: int = 3
    window_radius: int = 4
    iterations: int = 4
    downscale: int = 2

    def __post_init__(self):
        if self.pyramid_levels < 1:
            raise InputError("pyramid_levels must be >= 1")
        if self.window_radius < 1:
            raise InputError("window_radius must be >= 1")
        if self.iterations < 1:
            raise InputError("iterations must be >= 1")
        if self.downscale < 1:
            raise InputError("downscale must be an integer >= 1")


def _block_mean(img: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return img
    h, w = img.shape
    return img.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def _decimate(img: np.ndarray) -> np.ndarray:
    return ndimage.gaussian_filter(img, 1.0, mode="nearest")[::2, ::2]


def _upsample(field: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    hh, ww = shape
    yy, xx = np.mgrid[0:hh, 0:ww]
    return ndimage.map_coordinates(
        field, [yy / 2.0, xx / 2.0], order=1, mode="nearest"
    )


def _warp(img: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w]
    return ndimage.map_coordinates(img, [yy + v, xx + u], order=1, mode="nearest")


def _window_sum(img: np.ndarray, radius: int) -> np.ndarray:
    size = 2 * radius + 1
    return ndimage.uniform_filter(img, size=size, mode="nearest") * (size * size)


def _refine(a, b, u, v, radius: int, iterations: int):
    for _ in range(iterations):
        bw = _warp(b, u, v)
        iy, ix = np.gradient(0.5 * (a + bw))
        it = bw - a
        sxx = _window_sum(ix * ix, radius)
        sxy = _window_sum(ix * iy, radius)
        syy = _window_sum(iy * iy, radius)
        sxt = _window_sum(ix * it, radius)
        syt = _window_sum(iy * it, radius)
        det = sxx * syy - sxy * sxy
        ok = det > _DET_EPS
        safe = np.where(ok, det, 1.0)
        du = np.where(ok, (sxy * syt - syy * sxt) / safe, 0.0)
        dv = np.where(ok, (sxy * sxt - sxx * syt) / safe, 0.0)
        u = u + du
        v = v + dv
    return u, v


def _textured(img: np.ndarray, radius: int) -> np.ndarray:
    iy, ix = np.gradient(img)
    sxx = _window_sum(ix * ix, radius)
    sxy = _window_sum(ix * iy, radius)
    syy = _window_sum(iy * iy, radius)
    disc = np.sqrt(np.maximum((sxx - syy) ** 2 + 4.0 * sxy * sxy, 0.0))
    lam_min = 0.5 * (sxx + syy - disc)
    window_px = (2 * radius + 1) ** 2
    return lam_min >= TEXTURE_EIGEN_FLOOR * window_px


def compute_dense_flow(a: Frame, b: Frame, params: FlowParams = FlowParams()) -> FlowField:
    """Estimate per-pixel flow from ``a`` to ``b`` at 1/downscale resolution.

    Raises InputError on dimension mismatch, dimensions not divisible by
    the downscale factor, or frames too small for the pyramid.
    """
    if a.data.shape != b.data.shape:
        raise InputError(
            f"frame dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    d = params.downscale
    if a.width % d or a.height % d:
        raise InputError(f"frame dimensions must be divisible by downscale={d}")
    base_a = _block_mean(a.data.astype(np.float64), d)
    base_b = _block_mean(b.data.astype(np.float64), d)
    if min(base_a.shape) < MIN_LEVEL_SIZE:
        raise InputError(
            f"frame smaller than minimum pyramid size ({MIN_LEVEL_SIZE} px after downscale)"
        )

    pyr_a, pyr_b = [base_a], [base_b]
    while (
        len(pyr_a) < params.pyramid_levels
        and min(pyr_a[-1].shape) // 2 >= MIN_LEVEL_SIZE
    ):
        pyr_a.append(_decimate(pyr_a[-1]))
        pyr_b.append(_decimate(pyr_b[-1]))

    u = np.zeros_like(pyr_a[-1])
    v = np.zeros_like(pyr_a[-1])
    for level in range(len(pyr_a) - 1, -1, -1):
        if level < len(pyr_a) - 1:
            u = _upsample(u, pyr_a[level].shape) * 2.0
            v = _upsample(v, pyr_a[level].shape) * 2.0
        u, v = _refine(
            pyr_a[level], pyr_b[level], u, v, params.window_radius, params.iterations
        )

    u = ndimage.median_filter(u, size=_MEDIAN_SIZE, mode="nearest")
    v = ndimage.median_filter(v, size=_MEDIAN_SIZE, mode="nearest")
    valid = _textured(base_a, params.window_radius)
    return FlowField(u=u, v=v, valid=valid)

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
   upsampled (x2) between levels. The upsampling gives the same bits as
   ``scipy.ndimage.map_coordinates(order=1, mode="nearest")`` at the
   fine grid's coordinates halved, from a few whole-array operations
   (see ``_upsample``).
4. The finished field is median-filtered (7x7, borders replicated) to
   suppress the isolated outliers that warping produces along occlusion
   edges. The median is an exact partition over the window stack, taken a
   fixed number of rows at a time so temporary memory stays bounded, and
   it partitions order-preserving int32 keys of the float32 field, which
   select the same element as the floats do (see ``_median``).
5. At the finest level the structure tensor's smaller eigenvalue decides
   per-pixel validity: flat or single-gradient neighborhoods (aperture
   cases) are marked invalid and their flow is zeroed.

The estimator promises accurate *rigid translation* recovery (the pipeline
only ever consumes flow statistics over dense textured regions); it makes
no claims near occlusions or for large rotations.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .errors import InputError
from .io import FlowField, Frame

MIN_LEVEL_SIZE = 8
# Floor for the window-averaged weaker eigenvalue of the structure tensor,
# in squared intensity units per pixel; below it a pixel is invalid.
TEXTURE_EIGEN_FLOOR = 1.0
_DET_EPS = 1e-6
_MEDIAN_SIZE = 7
# Rows of the field whose 7x7 windows are copied out and partitioned at
# once: temporary memory is 49 floats per pixel of one such band.
_MEDIAN_CHUNK_ROWS = 16


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
    """Mean of each ``factor`` x ``factor`` block of ``img``, whose sides
    are multiples of ``factor``.

    ``img`` must hold integer values (every caller passes 8-bit frames as
    float64). Their block sums are then exact in any order, so summing the
    ``factor**2`` strided slices and dividing by ``factor**2`` gives the
    same bits as ``img.reshape(...).mean(axis=(1, 3))``, which sums in
    another order and divides by the same count. For other input the two
    sums may round differently, and the means differ in the last bit.
    """
    if factor == 1:
        return img
    total = sum(img[i::factor, j::factor] for i in range(factor) for j in range(factor))
    return total / (factor * factor)


def _decimate(img: np.ndarray) -> np.ndarray:
    return ndimage.gaussian_filter(img, 1.0, mode="nearest")[::2, ::2]


def _upsample(field: np.ndarray, shape: tuple) -> np.ndarray:
    """Bilinear x2 upsampling of ``field`` onto the finer level of
    ``shape``, whose sides are ``2 * field``'s sides or one less.

    The result has the same bits as ``ndimage.map_coordinates(field,
    np.indices(shape) / 2.0, order=1, mode="nearest")``. Fine pixel
    ``(2i + a, 2j + b)`` sits at coarse ``(i + a/2, j + b/2)``, so each of
    the four parity slices ``out[a::2, b::2]`` reads the same four corners
    of the coarse field, edge-padded by one row and column as scipy clamps
    the corner indices (not the coordinates) in this mode, with one pair
    of weights per axis. Each slice repeats scipy's arithmetic: ``w0 = 1 -
    frac``, ``w1 = 1 - w0``, each corner times its row weight and then its
    column weight, and the four corners summed in order onto ``0.0``.
    """
    padded = np.pad(field, ((0, 1), (0, 1)), mode="edge")
    out = np.empty(shape)
    for a in (0, 1):
        wr0 = 1.0 - 0.5 * a
        wr1 = 1.0 - wr0
        for b in (0, 1):
            wc0 = 1.0 - 0.5 * b
            wc1 = 1.0 - wc0
            dst = out[a::2, b::2]
            h, w = dst.shape
            dst[...] = (
                0.0
                + padded[:h, :w] * wr0 * wc0
                + padded[:h, 1 : w + 1] * wr0 * wc1
                + padded[1 : h + 1, :w] * wr1 * wc0
                + padded[1 : h + 1, 1 : w + 1] * wr1 * wc1
            )
    return out


def _warp(img: np.ndarray, u: np.ndarray, v: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return ndimage.map_coordinates(
        img, [grid[0] + v, grid[1] + u], order=1, mode="nearest"
    )


def _window_sum(stack: np.ndarray, radius: int) -> np.ndarray:
    """Square-window sums of each image of ``stack`` (``(k, rows, cols)``),
    borders replicated. ``uniform_filter`` skips an axis of size 1, so one
    call equals ``k`` calls on the images one at a time."""
    size = 2 * radius + 1
    return ndimage.uniform_filter(stack, size=(1, size, size), mode="nearest") * (size * size)


def _refine(a, b, u, v, radius: int, iterations: int, grid: np.ndarray):
    for _ in range(iterations):
        bw = _warp(b, u, v, grid)
        iy, ix = np.gradient(0.5 * (a + bw))
        it = bw - a
        sxx, sxy, syy, sxt, syt = _window_sum(
            np.stack([ix * ix, ix * iy, iy * iy, ix * it, iy * it]), radius
        )
        det = sxx * syy - sxy * sxy
        ok = det > _DET_EPS
        safe = np.where(ok, det, 1.0)
        du = np.where(ok, (sxy * syt - syy * sxt) / safe, 0.0)
        dv = np.where(ok, (sxy * sxt - sxx * syt) / safe, 0.0)
        u = u + du
        v = v + dv
    return u, v


def _median(field: np.ndarray) -> np.ndarray:
    """7x7 median of ``field`` with borders replicated, in float32.

    For finite input without ``-0.0`` the result equals
    ``scipy.ndimage.median_filter(field, size=7, mode="nearest")`` cast to
    float32 exactly: edge padding replicates the border as
    ``mode="nearest"`` does, the median of 49 values is the element
    ``np.partition`` puts at index 24, and rounding to float32 first picks
    the same element, since a monotone cast keeps the order. ``FlowField``
    stores float32, so flow's output does not change, and the partition
    moves half the bytes.

    The partition runs on int32 keys, which sort faster than floats. A
    float32's bits read as an int32 order non-negative floats correctly
    and negative ones in reverse; ``bits ^ ((bits >> 31) & 0x7FFFFFFF)``
    reverses the negative ones, so the keys keep the floats' order, and
    applying the same map to the selected key restores its float's bits.
    Equal floats have equal keys except ``-0.0`` and ``0.0``: the keys put
    ``-0.0`` below ``0.0``, where scipy and a float partition treat them
    as equal, so where the two tie for the median the sign may differ.
    For flow this is moot, because its float64 ``u`` and ``v`` never hold
    ``-0.0``: they start at ``0.0``, each update is ``u + du``, each
    upsampled value is a sum onto ``0.0`` and then doubled, and a float
    sum is ``-0.0`` only when both terms are, while ``x + (-x)`` is
    ``0.0``. Only the float32 cast could still make a ``-0.0``, from a
    negative value of magnitude at most ``2**-150`` px.
    NaN is unsupported (partition and scipy order it differently); flow
    never produces NaN because ``_refine`` divides only where ``det`` is
    above ``_DET_EPS``.
    """
    r = _MEDIAN_SIZE // 2
    mid = _MEDIAN_SIZE * _MEDIAN_SIZE // 2
    bits = np.asarray(field, dtype=np.float32).view(np.int32)
    keys = bits ^ ((bits >> 31) & 0x7FFFFFFF)
    windows = sliding_window_view(np.pad(keys, r, mode="edge"), (_MEDIAN_SIZE, _MEDIAN_SIZE))
    out = np.empty_like(keys)
    for top in range(0, keys.shape[0], _MEDIAN_CHUNK_ROWS):
        band = np.ascontiguousarray(windows[top : top + _MEDIAN_CHUNK_ROWS])
        stack = band.reshape(band.shape[0], band.shape[1], -1)
        stack.partition(mid, axis=-1)
        out[top : top + _MEDIAN_CHUNK_ROWS] = stack[..., mid]
    out ^= (out >> 31) & 0x7FFFFFFF
    return out.view(np.float32)


def _textured(img: np.ndarray, radius: int) -> np.ndarray:
    iy, ix = np.gradient(img)
    sxx, sxy, syy = _window_sum(np.stack([ix * ix, ix * iy, iy * iy]), radius)
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
        # (row, column) index of every pixel of this level, shared by
        # every warp on it.
        grid = np.indices(pyr_a[level].shape, dtype=np.float64)
        if level < len(pyr_a) - 1:
            u = _upsample(u, pyr_a[level].shape) * 2.0
            v = _upsample(v, pyr_a[level].shape) * 2.0
        u, v = _refine(
            pyr_a[level], pyr_b[level], u, v, params.window_radius, params.iterations, grid
        )

    u = _median(u)
    v = _median(v)
    valid = _textured(base_a, params.window_radius)
    return FlowField(u=u, v=v, valid=valid)

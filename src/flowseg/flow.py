"""Dense optical flow between two grayscale frames.

The estimator is a coarse-to-fine pyramidal least-squares flow of fixed
shape: 3 pyramid levels, a 9x9 least-squares window (radius 4, which
keeps motion boundaries tight) and 2 warp/solve iterations per level.
Only the ``downscale`` factor is a setting.

1. Both frames are reduced by the integer ``downscale`` factor d to block
   means, exact integer ``block_sums`` (the overlay writer's too) over d**2,
   so all downstream processing runs at that resolution.
2. A Gaussian pyramid is built per frame; levels whose short side would
   fall below 8 px are dropped.
3. From the coarsest level down, the current flow warps the second frame
   onto the first and a windowed 2x2 normal-equation solve (classic
   Lucas-Kanade least squares over a square window) yields an incremental
   update; 2 warp/solve iterations run per level and the flow is upsampled
   (x2) between levels. The gradient is the first frame's, so a level's
   structure tensor and its determinant are built once and an iteration
   rebuilds only the mismatch sums: the constant Hessian of Baker &
   Matthews' inverse-compositional form ("Lucas-Kanade 20 Years On",
   IJCV 2004), which converges where the two frames' mean gradient did not.
   Every level-sized array of a call that does not go into the returned
   ``FlowField`` (the pyramid, the upsampled fields, the tensor, the
   iterations' buffers, the median's and the texture test's temporaries)
   is a view of a buffer the calling thread keeps and reuses across calls
   and levels (see ``scratch``): a buffer grows to a thread's largest need
   and never shrinks, and threads never share one.
   The warp is a bilinear gather from an edge-padded copy of the level,
   which replaces index clamping, and the gradients are written in place;
   both give the same bits as ``scipy.ndimage.map_coordinates(order=1,
   mode="nearest")`` and ``np.gradient`` (see ``_Gather`` and
   ``_gradient``). The upsampling gives the same bits as
   ``map_coordinates`` at the fine grid's coordinates halved, from a few
   whole-array operations (see ``_upsample``).
4. The finished field is median-filtered (7x7, borders replicated) to
   suppress the isolated outliers that warping produces along occlusion
   edges. The median is an exact partition over the window stack, taken a
   fixed number of rows at a time so temporary memory stays bounded; it
   partitions order-preserving int32 keys of the float32 field, which
   select the same element as the floats do, through views of the
   thread's buffers (see ``_median``).
5. The finest level's structure tensor from step 3 also decides per-pixel
   validity by its smaller eigenvalue: flat or single-gradient neighborhoods
   (aperture cases) are marked invalid and their flow is zeroed.

Coordinates and fields are assumed finite: NaN or infinite values make the
exact forms and the general-purpose calls part ways.

The estimator promises accurate *rigid translation* recovery (the pipeline
only ever consumes flow statistics over dense textured regions); it makes
no claims near occlusions or for large rotations.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy import ndimage

from .errors import InputError, require_integers
from .io import FlowField, Frame

MIN_LEVEL_SIZE = 8
PYRAMID_LEVELS = 3
# WINDOW_RADIUS 4 keeps motion boundaries tight; wider windows smear the
# magnitude transition at object edges and make segment borders depend on
# local texture contrast.
WINDOW_RADIUS = 4
ITERATIONS = 2
# Floor for the window-averaged weaker eigenvalue of the structure tensor,
# in squared intensity units per pixel; below it a pixel is invalid.
TEXTURE_EIGEN_FLOOR = 1.0
_DET_EPS = 1e-6
_MEDIAN_SIZE = 7
# Rows of the field whose 7x7 windows are copied out and partitioned at
# once: temporary memory is 49 floats per pixel of one such band.
_MEDIAN_CHUNK_ROWS = 16


# The calling thread's scratch buffers (see ``scratch``).
_local = threading.local()


def scratch(name: str, shape, dtype=np.float64) -> np.ndarray:
    """The calling thread's buffer ``name`` of ``dtype``, its front viewed
    as an array of ``shape`` (an int or a tuple). A larger need replaces
    the buffer with one at least a quarter larger and none shrinks it, so
    a thread keeps its largest need. Arrays alive at once take different
    names: a view is valid until the next call for its name in its thread.
    A ``take`` into one passes ``mode="clip"`` (with indices in range),
    since the default mode writes through a fresh copy of ``out``."""
    buffers = _local.__dict__.setdefault("buffers", {})
    key = (name, np.dtype(dtype))
    n = math.prod(shape) if isinstance(shape, tuple) else shape
    buf = buffers.get(key)
    if buf is None or buf.size < n:
        buf = buffers[key] = np.empty(max(n, 0 if buf is None else buf.size + buf.size // 4), dtype)
    return buf[:n].reshape(shape)


@dataclass(frozen=True)
class FlowParams:
    downscale: int = 2

    def __post_init__(self):
        require_integers(downscale=self.downscale)
        if self.downscale < 1:
            raise InputError("downscale must be an integer >= 1")


def _edge_pad(a: np.ndarray, before: int, after: int, out: np.ndarray) -> np.ndarray:
    """``np.pad(a, (before, after), mode="edge")`` of a 2-D ``a``, by slice
    assignment, into ``out``."""
    h, w = a.shape
    out[before : before + h, before : before + w] = a
    out[:before, before : before + w] = a[0]
    out[before + h :, before : before + w] = a[-1]
    out[:, :before] = out[:, before : before + 1]
    out[:, before + w :] = out[:, before + w - 1 : before + w]
    return out


def _sum_dtype(d: int):
    """The unsigned type that holds every sum of d**2 8-bit values."""
    return np.uint16 if 255 * d * d <= np.iinfo(np.uint16).max else np.uint32


def block_sums(img: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of each ``d`` x ``d`` block of the 8-bit ``img`` (a frame, or
    frames along leading axes, each summed as alone), whose last two sides
    are multiples of ``d``, into ``out`` if given. The d**2 strided slices
    are summed exactly as integers: in uint16 while 255 * d**2 fits (d <=
    16), else in uint32."""
    first, *rest = (img[..., i::d, j::d] for i in range(d) for j in range(d))
    if out is None:
        out = np.empty(first.shape, _sum_dtype(d))
    np.copyto(out, first)
    for part in rest:
        out += part
    return out


def _block_mean(img: np.ndarray, factor: int, out: np.ndarray | None = None) -> np.ndarray:
    """Mean of each ``factor`` x ``factor`` block of ``img`` (as in
    ``block_sums``), written into ``out`` if given: the exact integer sums,
    in the thread's ``scratch``, divided by ``factor**2`` in float64. That
    gives the bits of the float64 ``img.reshape(...).mean(axis=(1, 3))``,
    which sums exactly in another order and divides by the same count."""
    shape = img[..., ::factor, ::factor].shape
    sums = block_sums(img, factor, out=scratch("block_sums", shape, _sum_dtype(factor)))
    return np.divide(sums, factor * factor, out=out)


def _decimate(img: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
    """Every second row and column of ``img`` smoothed by a unit Gaussian,
    a view of ``output`` (``img``'s shape) if given."""
    return ndimage.gaussian_filter(img, 1.0, mode="nearest", output=output)[::2, ::2]


def _upsample(field: np.ndarray, shape: tuple, out: np.ndarray | None = None) -> np.ndarray:
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

    The weights are exact: ``(1, 0)`` along an axis of even parity and
    ``(0.5, 0.5)`` along one of odd parity. A weight of 1 leaves a corner's
    bits as they are, and a weight of 0 makes the term ``+-0.0``. A sum
    that starts from ``0.0 +`` is never ``-0.0``, and adding ``+-0.0`` to
    any other float leaves it unchanged, so the zero-weight corners are
    skipped and the unit weights not applied: the even-even slice is
    ``0.0 + corner``, the two mixed slices sum two halved corners, and
    only the odd-odd slice sums all four. (An infinite ``field`` value
    would break this, since ``inf * 0`` is NaN.) The sums are written
    into ``out`` if given, the halved corners into the thread's ``scratch``.
    """
    hc, wc = field.shape
    padded = _edge_pad(field, 0, 1, out=scratch("upsample.padded", (hc + 1, wc + 1)))
    halved = scratch("upsample.halved", (hc, wc))
    if out is None:
        out = np.empty(shape)
    for a in (0, 1):
        for b in (0, 1):
            dst = out[a::2, b::2]
            h, w = dst.shape
            first = True
            for dr in range(a + 1):
                for dc in range(b + 1):
                    term = padded[dr : dr + h, dc : dc + w]
                    if a or b:
                        term = np.multiply(term, 0.5, out=halved[:h, :w])
                    if a and b:
                        term *= 0.5
                    if first:
                        np.add(0.0, term, out=dst)
                        first = False
                    else:
                        dst += term
    return out


def _gradient(f: np.ndarray, gy: np.ndarray, gx: np.ndarray) -> None:
    """Write ``np.gradient(f)`` into ``gy`` (along rows) and ``gx`` (along
    columns) with the same bits.

    For unit spacing ``np.gradient`` takes central differences
    ``(f[2:] - f[:-2]) / 2.0`` inside and one-sided differences ``f[1] -
    f[0]`` and ``f[-1] - f[-2]`` at the two edges (divided by a spacing of
    1.0, which changes no bits). The same operations run here, each
    written straight into its slice of the output. Both sides of ``f``
    must be at least 2.
    """
    np.subtract(f[2:], f[:-2], out=gy[1:-1])
    gy[1:-1] /= 2.0
    np.subtract(f[1], f[0], out=gy[0])
    np.subtract(f[-1], f[-2], out=gy[-1])
    np.subtract(f[:, 2:], f[:, :-2], out=gx[:, 1:-1])
    gx[:, 1:-1] /= 2.0
    np.subtract(f[:, 1], f[:, 0], out=gx[:, 0])
    np.subtract(f[:, -1], f[:, -2], out=gx[:, -1])


class _Gather:
    """Bilinear samples of ``img`` at points given as arrays of ``shape``,
    written into the calling thread's ``scratch``, so one ``_Gather`` per
    thread is in use at a time.

    ``gather(rows, cols, out)`` writes the same bits as
    ``ndimage.map_coordinates(img, [rows, cols], order=1, mode="nearest")``
    by repeating scipy's arithmetic per axis and per corner:

    - ``t = c - floor(c)``, ``w0 = 1 - t`` and ``w1 = 1 - w0``;
    - the corner indices ``floor(c)`` and ``floor(c) + 1`` are clamped to
      the image, not the coordinate, so a point half a pixel outside the
      image still mixes two copies of the edge pixel;
    - each corner value is multiplied by its row weight, then by its
      column weight;
    - the products are summed onto ``0.0`` in the order r0c0, r0c1, r1c0,
      r1c1.

    A copy of ``img`` edge-padded by one pixel does the index clamping:
    with the float floor clamped to ``[-1, n - 1]``, the padded pixels at
    ``floor + 1`` and ``floor + 2`` are the clamped corners, and the cast
    stays in range for any finite coordinate. One flat index per point
    addresses r0c0 and the offsets 1, ``w + 2`` and ``w + 3`` the other
    corners. NaN or infinite coordinates are unsupported: scipy and this
    form treat them differently, and flow never produces them.
    """

    def __init__(self, img: np.ndarray, shape: tuple):
        h, w = self._size = img.shape
        padded = scratch("gather.img", (h + 2, w + 2), img.dtype)
        flat = _edge_pad(img, 1, 1, out=padded).ravel()
        self._corners = [flat[offset:] for offset in (0, 1, w + 2, w + 3)]
        self._floor = scratch("gather.floor", (2, *shape))
        # Row weights w0, w1, then column weights w0, w1.
        self._weights = scratch("gather.weights", (4, *shape))
        self._index = scratch("gather.index", shape, np.intp)
        self._term = scratch("gather.term", shape)

    def _axis(self, coord, n, floor, weights):
        np.floor(coord, out=floor)
        np.subtract(coord, floor, out=weights[1])
        np.subtract(1.0, weights[1], out=weights[0])
        np.subtract(1.0, weights[0], out=weights[1])
        np.clip(floor, -1, n - 1, out=floor)

    def __call__(self, rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
        h, w = self._size
        row_f, col_f = self._floor
        row_w, col_w = self._weights[:2], self._weights[2:]
        self._axis(rows, h, row_f, row_w)
        self._axis(cols, w, col_f, col_w)
        # (row + 1) * (w + 2) + (col + 1), exact in float64.
        row_f *= w + 2
        row_f += col_f
        np.add(row_f, w + 3, out=self._index, casting="unsafe")
        term = self._term
        for corner, (r, c) in zip(self._corners, ((0, 0), (0, 1), (1, 0), (1, 1))):
            np.take(corner, self._index, out=term, mode="clip")
            term *= row_w[r]
            term *= col_w[c]
            if r or c:
                out += term
            else:
                np.add(0.0, term, out=out)


def _window_sum(stack: np.ndarray, radius: int, output: np.ndarray | None = None) -> np.ndarray:
    """Square-window sums of each image of ``stack`` (``(k, rows, cols)``),
    borders replicated, written into ``output`` if given (which may be
    ``stack`` itself). These are the two ``uniform_filter1d`` passes that
    ``uniform_filter(stack, size=(1, s, s))`` runs, the second in place,
    so they equal one call per image; each pass copies a line out before
    writing it, so either may run in place. The means are scaled to sums
    in place, with the same bits as a scaled copy."""
    size = 2 * radius + 1
    sums = ndimage.uniform_filter1d(stack, size, axis=1, output=output, mode="nearest")
    ndimage.uniform_filter1d(sums, size, axis=2, output=sums, mode="nearest")
    sums *= size * size
    return sums


def _refine(a, b, u, v, radius: int, iterations: int, grid):
    """Run ``iterations`` warp/solve steps on one pyramid level and return
    the refined ``u``, ``v`` and the level's structure tensor ``(sxx, sxy,
    syy)``, built once from ``a``'s gradient; the inputs are not modified.
    ``grid`` holds the level's row and column indices, as arrays that
    broadcast to its shape. The results are views of the thread's
    ``scratch``, valid until its next ``_refine`` call.

    Each step writes into the calling thread's ``scratch`` through ``out=``
    ufuncs in the order of the plain expressions ``iy, ix = np.gradient(a)``,
    ``ix * iy``, ``sxx * syy - sxy * sxy``, ``bw - a``, ``(sxy * syt - syy *
    sxt) / det`` and so on, so each value has the bits those expressions
    give. Where ``det <= _DET_EPS`` the divisor is set to 1.0 and the update
    to 0.0 by masked assignment, as ``np.where(det > _DET_EPS, ...)`` would
    select them.
    """
    shape = a.shape
    gather = _Gather(b, shape)
    fields = scratch("refine.uv", (2, *shape))
    fields[0], fields[1] = u, v
    u, v = fields
    rows, cols, bw, it, det, update, term = scratch("planes", (7, *shape))
    ix, iy = gradient = scratch("refine.gradient", (2, *shape))
    products = scratch("products", (5, *shape))
    tensor, mismatch = products[:3], products[3:]
    flat = scratch("refine.flat", shape, bool)
    _gradient(a, iy, ix)
    for slot, (p, q) in zip(tensor, ((ix, ix), (ix, iy), (iy, iy))):
        np.multiply(p, q, out=slot)
    sxx, sxy, syy = _window_sum(tensor, radius, output=tensor)
    np.multiply(sxx, syy, out=det)
    np.multiply(sxy, sxy, out=term)
    det -= term
    np.less_equal(det, _DET_EPS, out=flat)
    np.copyto(det, 1.0, where=flat)
    for _ in range(iterations):
        np.add(grid[0], v, out=rows)
        np.add(grid[1], u, out=cols)
        gather(rows, cols, bw)
        np.subtract(bw, a, out=it)
        np.multiply(gradient, it, out=mismatch)
        sxt, syt = _window_sum(mismatch, radius, output=mismatch)
        for field, (p, q, r, s) in ((u, (sxy, syt, syy, sxt)), (v, (sxy, sxt, sxx, syt))):
            np.multiply(p, q, out=update)
            np.multiply(r, s, out=term)
            update -= term
            update /= det
            np.copyto(update, 0.0, where=flat)
            field += update
    return u, v, tensor


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

    The keys, their edge-padded copy and the band buffers are views of the
    calling thread's ``scratch``, kept across calls; only the result is
    new. Each band of rows copies its 7-row column strips into one
    ``(rows, cols + 6, 7)`` buffer, where a pixel's 49 keys are one
    contiguous run, so a strided view copies them out whole into the stack
    that is partitioned. They come out column by column, not row by row,
    which no rank statistic can see.
    """
    r = _MEDIAN_SIZE // 2
    mid = _MEDIAN_SIZE * _MEDIAN_SIZE // 2
    height, width = field.shape
    out = np.empty((height, width), np.float32)
    np.copyto(out, field)
    bits = out.view(np.int32)
    keys = scratch("median.keys", (height, width), np.int32)
    np.right_shift(bits, 31, out=keys)
    keys &= 0x7FFFFFFF
    keys ^= bits
    padded = scratch("median.padded", (height + 2 * r, width + 2 * r), np.int32)
    columns = sliding_window_view(_edge_pad(keys, r, r, out=padded), _MEDIAN_SIZE, axis=0)
    band = min(_MEDIAN_CHUNK_ROWS, height)
    strips = scratch("median.strips", (band, width + 2 * r, _MEDIAN_SIZE), np.int32)
    windows = as_strided(strips, (band, width, 2 * mid + 1), strips.strides, writeable=False)
    stack = scratch("median.stack", windows.shape, np.int32)
    for top in range(0, height, band):
        rows = min(band, height - top)
        np.copyto(strips[:rows], columns[top : top + rows])
        np.copyto(stack[:rows], windows[:rows])
        stack[:rows].partition(mid, axis=-1)
        bits[top : top + rows] = stack[:rows, :, mid]
    np.right_shift(bits, 31, out=keys)
    keys &= 0x7FFFFFFF
    bits ^= keys
    return out


def _textured(sxx: np.ndarray, sxy: np.ndarray, syy: np.ndarray, radius: int) -> np.ndarray:
    """Where the window-averaged weaker eigenvalue of the structure tensor
    ``sxx, sxy, syy`` (window sums over ``radius``; flow passes the finest
    level's from ``_refine``) reaches ``TEXTURE_EIGEN_FLOOR``. The
    temporaries are the fronts of the thread's ``_refine`` planes
    (``scratch``), written through ``out=`` in the order of the plain
    expressions ``disc = sqrt(maximum((sxx - syy)**2 + 4.0 * sxy * sxy,
    0.0))`` and ``0.5 * (sxx + syy - disc)``: they have their bits."""
    disc, lam_min = scratch("planes", (2, *sxx.shape))
    np.subtract(sxx, syy, out=disc)
    disc *= disc
    np.multiply(4.0, sxy, out=lam_min)
    lam_min *= sxy
    disc += lam_min
    np.maximum(disc, 0.0, out=disc)
    np.sqrt(disc, out=disc)
    np.add(sxx, syy, out=lam_min)
    lam_min -= disc
    lam_min *= 0.5
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
    base = (a.height // d, a.width // d)
    if min(base) < MIN_LEVEL_SIZE:
        raise InputError(
            f"frame smaller than minimum pyramid size ({MIN_LEVEL_SIZE} px after downscale)"
        )

    pyr_a = [_block_mean(a.data, d, out=scratch("level.a", base))]
    pyr_b = [_block_mean(b.data, d, out=scratch("level.b", base))]
    while len(pyr_a) < PYRAMID_LEVELS and min(pyr_a[-1].shape) // 2 >= MIN_LEVEL_SIZE:
        # a level is read while the next is written: each has its own name
        shape, level = pyr_a[-1].shape, len(pyr_a)
        pyr_a.append(_decimate(pyr_a[-1], output=scratch(f"smoothed.a{level}", shape)))
        pyr_b.append(_decimate(pyr_b[-1], output=scratch(f"smoothed.b{level}", shape)))

    u = v = None
    for level in range(len(pyr_a) - 1, -1, -1):
        shape = pyr_a[level].shape
        # (row, column) index of every pixel of this level, as a column and
        # a row that broadcast to it, shared by every warp on it.
        grid = np.arange(shape[0], dtype=np.float64)[:, None], np.arange(shape[1], dtype=np.float64)
        start = scratch("start", (2, *shape))
        if u is None:
            start.fill(0.0)
        else:
            _upsample(u, shape, out=start[0])
            _upsample(v, shape, out=start[1])
            start *= 2.0
        u, v, tensor = _refine(pyr_a[level], pyr_b[level], *start, WINDOW_RADIUS, ITERATIONS, grid)

    u = _median(u)
    v = _median(v)
    valid = _textured(*tensor, WINDOW_RADIUS)
    return FlowField(u=u, v=v, valid=valid)

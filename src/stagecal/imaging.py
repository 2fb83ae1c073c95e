"""Linear image I/O, transfer-function handling, and chart patch sampling.

Everything here works in scene-linear RGB. Encoded (display-referred) values
exist only on the way out: _encode16 turns linear values into 16-bit codes,
which write_png16 writes as they are. Float images travel as PFM; charts as CSV.
"""

from __future__ import annotations

import mmap
import numbers
import os
import reprlib
import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

CHART_ROWS = 4
CHART_COLS = 6
CHART_PATCHES = CHART_ROWS * CHART_COLS

# First patch of the neutral (bottom) row in row-major chart order.
DEFAULT_WHITE_INDEX = 18

# Fraction of the incident light the chart's white patch reflects.
WHITE_REFLECTANCE = 0.9

DEFAULT_INSET = 0.25
TRIM_FRACTION = 0.1

# Elements per block of the image check's walk (4 MiB of float32); trimmed_mean's
# row blocks span as many bytes.
_CHUNK = 1 << 20

# Each float's bit pattern as an unsigned integer, and that of +inf: a finite
# non-negative float's pattern is below it; NaN, +inf and a set sign bit are not.
_INF_BITS = {np.dtype(np.float32): (np.uint32, 0x7F800000), np.dtype(np.float64): (np.uint64, 0x7FF << 52)}

# Longest line, newline included, of a PFM header or a chart CSV: a longer one is malformed, and is not read whole.
_MAX_LINE = 256


class _ShortRepr(reprlib.Repr):
    """How an error message repeats an outside value: repr() if short, else abbreviated; a too-long int is named."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            return f"<{x.bit_length()}-bit int>"


short_repr = _ShortRepr().repr


def is_real(value) -> bool:
    """Whether `value` is a real number: not a bool, though Python counts True as 1, and not a string."""
    # isinstance(), not type(): numpy's real scalars count; JSON true parses to a bool, which is an int
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_number(value, kind: type) -> bool:
    """A finite real number by is_real's rule; an integer (kind int) takes no fractional part."""
    return is_real(value) and abs(value) <= sys.float_info.max and (kind is float or value == int(value))


def as_array(value, shape: tuple, name: str, nonneg: bool = False) -> np.ndarray:
    """`value` as a finite float64 array of `shape`, and >= 0 with `nonneg`.

    A None in `shape` matches any length. Anything else raises ValueError
    naming `name`: non-numeric input, the wrong shape, or the index of the
    first non-finite (or, with `nonneg`, negative) component. Each element of
    a list or tuple, and a bare bool or string, must pass is_real (`[true, 1]`
    and `["1.5"]` do not); an ndarray's elements convert as numpy converts them.
    """
    return _checked(_float64(value, name), shape, name, nonneg)


def _float64(value, name: str) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=np.float64)
        # numpy reads true as 1.0, "1.5" as 1.5 and None as nan, so these are read element by element
        elementwise = isinstance(value, (list, tuple, bool, str, type(None)))
        if elementwise and not all(map(is_real, np.asarray(value, object).flat)):
            raise TypeError
        return a
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ValueError(f"{name} must be numeric, got {short_repr(value)}") from exc


def _checked(a: np.ndarray, shape: tuple, name: str, nonneg: bool) -> np.ndarray:
    """`a` itself, once its shape and components pass as_array's checks.

    The components are read once, in memory order (negative strides flipped,
    so that no view is copied), _CHUNK at a time through _blocks. A chunk of
    a non-negative check of float32 or float64 passes on one maximum over its
    bit patterns, which is below that of +inf exactly when every component is
    finite and non-negative with a clear sign bit. Any other chunk, one
    holding -0.0 included, takes an exact min() and max(), which allocate
    nothing. Only a failing array is read again, whole, to name its culprit.
    """
    if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
        want = str(shape).replace("None", "n")
        raise ValueError(f"{name} must have shape {want}, got {a.shape}")
    flat = a[tuple(slice(None, None, -1 if s < 0 else 1) for s in a.strides)].ravel(order="K")
    bits = _INF_BITS.get(a.dtype) if nonneg else None
    for _, chunk in _blocks(flat, _CHUNK):
        if bits is not None and chunk.view(bits[0]).max() < bits[1]:
            continue
        lo, hi = chunk.min(), chunk.max()  # NaN fails every comparison
        if not (hi < np.inf and (lo >= 0 if nonneg else lo > -np.inf)):
            if not np.isfinite(a).all():
                _raise_at(a, ~np.isfinite(a), name, "non-finite")
            _raise_at(a, a < 0, name, "negative")
    return a


def _blocks(a: np.ndarray, n: int):
    """Yield (start, a[start : start + n]) along `a`'s first axis; each block goes to _release once the walk moves on.

    This is the rule by which a reader walks a capture that read_pfm mapped
    read-only: it keeps resident at most the block it is reading, and a later
    read of the same rows maps them again unchanged. LinearImage's check
    walks _CHUNK elements at a time, trimmed_mean leading-axis rows spanning
    about 4 MiB, and geometry.diffuse_convolve 64 map rows.
    """
    for start in range(0, len(a), n):
        block = a[start : start + n]
        yield start, block
        _release(block)


def _release(view: np.ndarray) -> None:
    """Hand the pages under `view` back to the kernel if its memory lies in a read-only file mapping; else nothing.

    Every page that holds a byte of the view, even in part, is dropped from
    the process (madvise MADV_DONTNEED). The file's page cache keeps it, and
    a later read maps it again unchanged. Its callers are _blocks and
    _pixels_in_quads. Writable and anonymous memory is never released, since
    there the kernel would discard writes or zero the data.
    """
    mapped = _read_only_map(view)
    if mapped is None or view.size == 0:
        return
    base = np.frombuffer(mapped, np.uint8).__array_interface__["data"][0]
    lo, hi = (bound - base for bound in _byte_bounds(view))  # the view's bytes in the map, end exclusive
    start = lo - lo % mmap.PAGESIZE  # madvise takes a page-aligned start and rounds the length up
    mapped.madvise(mmap.MADV_DONTNEED, start, hi - start)


# numpy 2 moved byte_bounds from the root into numpy.lib.array_utils, which numpy 1 lacks
_byte_bounds = getattr(np.lib, "array_utils", np).byte_bounds

_MMAP = mmap.mmap  # the type, bound once: a test may replace mmap.mmap by a function that refuses to map


def _read_only_map(a: np.ndarray):
    """The mmap.mmap that `a`'s memory belongs to, if that map is read-only and madvise can release it; else None."""
    root = a
    while not isinstance(root, _MMAP):
        root = root.obj if isinstance(root, memoryview) else getattr(root, "base", None)
        if root is None:
            return None
    if not hasattr(mmap, "MADV_DONTNEED") or np.frombuffer(root, np.uint8).flags.writeable:
        return None
    return root


def _raise_at(a: np.ndarray, bad: np.ndarray, name: str, what: str):
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), a.shape))
    raise ValueError(f"{name} has a {what} component at index {index}: {float(a[index])}")


@dataclass(frozen=True)
class LinearImage:
    """Scene-linear RGB image, row-major, components finite and >= 0.

    A float32 array, such as read_pfm returns, stays at that precision and a
    float64 array stays as it is; anything else is converted to float64.
    """

    data: np.ndarray  # (height, width, 3) float32 or float64

    def __post_init__(self):
        data = self.data
        if getattr(data, "dtype", None) != np.float32:
            data = _float64(data, "image")
        object.__setattr__(self, "data", _checked(data, (None, None, 3), "image", nonneg=True))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def check_image(kind: type, data, path) -> LinearImage:
    """kind(data), kind being LinearImage or a subclass, for data read from path; a rejected value names the file."""
    try:
        return kind(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def check_white_index(white_index: int) -> int:
    """`white_index` itself if it names a chart patch; ValueError otherwise."""
    if not 0 <= white_index < CHART_PATCHES:
        raise ValueError(f"white_index must be in [0, {CHART_PATCHES}), got {short_repr(white_index)}")
    return white_index


def check_roi(roi, name: str) -> tuple[int, int, int, int]:
    """`roi` as (x, y, w, h): four integers by is_number's rule, x, y >= 0, w, h >= 1; else ValueError naming `name`."""
    try:
        sized = len(roi) == 4
    except TypeError:  # None, a number, an iterator
        sized = False
    if not sized or not all(is_number(v, int) for v in roi):
        raise ValueError(f"{name} must be 4 integers (x, y, w, h), got {short_repr(roi)}")
    x, y, w, h = (int(v) for v in roi)
    if x < 0 or y < 0 or w < 1 or h < 1:
        raise ValueError(f"{name} needs x, y >= 0 and w, h >= 1, got {short_repr(roi)}")
    return x, y, w, h


def check_beta(beta: float, context: str = "") -> float:
    """`beta` itself if is_real(beta) and 0 < beta <= 1; ValueError (ending in `context`) otherwise, NaN included."""
    if not is_real(beta):
        raise ValueError(f"beta must be a number, got {short_repr(beta)}{context}")
    if not 0.0 < beta <= 1.0:
        # str() of a numpy scalar, which reads as the number; a Python int may be too long for str()
        shown = short_repr(beta) if isinstance(beta, int) else beta
        raise ValueError(f"beta must be in (0, 1], got {shown}{context}")
    return beta


@dataclass(frozen=True)
class ChartSamples:
    """24 linear RGB patch values in row-major chart order."""

    patches: np.ndarray  # (24, 3) float64

    def __post_init__(self):
        patches = as_array(self.patches, (CHART_PATCHES, 3), "patches", nonneg=True)
        object.__setattr__(self, "patches", patches)

    def white(self, white_index: int) -> np.ndarray:
        """The RGB of the white patch, which is patch `white_index`."""
        return self.patches[check_white_index(white_index)]


@dataclass(frozen=True)
class ChartGridSpec:
    """Chart location in image space: 4 corners plus per-patch inset.

    Corners are (x, y) pixel coordinates ordered top-left, top-right,
    bottom-right, bottom-left of the 6x4 patch grid.
    """

    corners: np.ndarray  # (4, 2) float64
    inset: float = DEFAULT_INSET

    def __post_init__(self):
        corners = as_array(self.corners, (4, 2), "corners")
        if (corners < 0).any():
            raise ValueError("chart corners must not have a negative coordinate")
        if not (0.0 < self.inset < 0.5):
            raise ValueError(f"inset {self.inset} not in (0, 0.5)")
        if not _is_convex(corners):
            raise ValueError("chart corners do not form a convex quadrilateral")
        object.__setattr__(self, "corners", corners)


def _is_convex(corners: np.ndarray) -> bool:
    crosses = []
    for i in range(4):
        a = corners[(i + 1) % 4] - corners[i]
        b = corners[(i + 2) % 4] - corners[(i + 1) % 4]
        crosses.append(a[0] * b[1] - a[1] * b[0])
    crosses = np.array(crosses)
    return bool((crosses > 0).all() or (crosses < 0).all())


def trimmed_mean(values: np.ndarray) -> np.ndarray:
    """Per-channel mean of (..., 3) values after dropping the top and bottom TRIM_FRACTION.

    One channel at a time is copied into one reused contiguous row and sorted
    there at the values' own precision, which orders float32 values as their
    exact float64 widening would. The kept part of the row is then widened
    into one reused float64 row and averaged along it (numpy's pairwise sum),
    so a float32 input gives the same bits as its float64 widening. Zeros
    average to +0.0, whatever their signs. The input is left as it is. For n
    float32 values the scratch is those two rows, 4n + 6.4n bytes.

    A channel is copied through _blocks, in blocks of leading-axis rows that
    span about 4 MiB of memory each, as a check chunk does.
    """
    values = np.atleast_2d(values)
    n = values.size // 3
    k = int(n * TRIM_FRACTION)
    step = max(1, 4 * _CHUNK // max(1, abs(values.strides[0])))
    # a contiguous row sorts and sums faster than a strided column
    row = np.empty(n, values.dtype)
    wide = np.empty(n - 2 * k)
    means = np.empty(3)
    for channel in range(3):
        for r, block in _blocks(values, step):
            row.reshape(values.shape[:-1])[r : r + step] = block[..., channel]
        row.sort()
        kept = row[k : n - k]
        # a constant channel passes through exactly instead of accruing summation ulps
        if kept[0] == kept[-1]:
            means[channel] = kept[0]
        else:
            wide[...] = kept
            means[channel] = wide.mean()
    # + 0.0 turns the -0.0 numpy's sort may hand back for all-zero rows into +0.0
    return means + 0.0


def _bilinear_point(corners: np.ndarray, u, v) -> np.ndarray:
    tl, tr, br, bl = corners
    u = np.asarray(u, dtype=np.float64)[..., None]
    v = np.asarray(v, dtype=np.float64)[..., None]
    return (1 - u) * (1 - v) * tl + u * (1 - v) * tr + u * v * br + (1 - u) * v * bl


def _pixels_in_quads(image: LinearImage, quads: np.ndarray):
    """Yield each quad's pixel values, row-major, for a (P, 4, 2) stack of quads.

    A pixel is inside a quad when its center passes sign * cross >= 0 for
    all four edges, sign being the quad's winding. Along a row each edge's
    test holds on a prefix or a suffix of the pixels, so the pixels inside
    form one run per row. Where each edge crosses a row's center line puts
    the run's ends within a pixel, and the exact test then decides the
    pixels at either end. The runs of all quads are found in one set of
    array operations, so a small quad costs little more than its pixels.

    Once a quad's pixels are copied out, the image rows above every later
    quad's top row are passed to _release: no later quad reads them. A
    patch's own rows are shared with the rest of its chart band, so they go
    when the band's last patch is done.
    """
    qx, qy = quads[..., 0], quads[..., 1]
    x0 = np.maximum(np.floor(qx.min(axis=1)), 0).astype(np.int64)[:, None]
    x1 = np.minimum(np.ceil(qx.max(axis=1)), image.width).astype(np.int64)[:, None]
    y0 = np.maximum(np.floor(qy.min(axis=1)), 0).astype(np.int64)
    y1 = np.minimum(np.ceil(qy.max(axis=1)), image.height).astype(np.int64)
    nx, ny = np.roll(qx, -1, axis=1), np.roll(qy, -1, axis=1)
    # winding sign from each quad's signed area
    t = qx * ny - nx * qy
    sign = np.where(t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3] >= 0, 1.0, -1.0)[:, None, None]
    # edge i of quad p runs from (ax, ay) by (dx, dy); each is (P, 4, 1)
    ax, ay, dx, dy = qx[..., None], qy[..., None], (nx - qx)[..., None], (ny - qy)[..., None]
    height = np.maximum(y1 - y0, 0)
    ys = y0[:, None] + np.arange(height.max(initial=0))  # (P, R), rows past a quad's own unused
    rise = dx * (ys[:, None, :] + 0.5 - ay)  # cross = rise - dy * (x + 0.5 - ax), (P, 4, R)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cut = ax + rise / dy  # where each edge crosses each row's center line
    # the test holds left of an edge's cut or right of it; a flat edge keeps or drops whole rows
    drop = (dy == 0) & (sign * rise < 0)
    right = np.where(sign * dy > 0, cut, np.where(drop, -np.inf, np.inf)).min(axis=1)
    left = np.where(sign * dy < 0, cut, -np.inf).max(axis=1)
    start = np.ceil(np.clip(left, x0, x1) - 0.5).astype(np.int64)
    stop = np.floor(np.clip(right, x0, x1) - 0.5).astype(np.int64) + 1
    ends = np.stack([start - 1, start, stop - 1, stop], axis=-1)[:, None]  # (P, 1, R, 4)
    cross = rise[..., None] - dy[..., None] * (ends + 0.5 - ax[..., None])
    ok = (sign[..., None] * cross >= 0).all(axis=1)
    start = np.maximum(np.where(ok[..., 0], start - 1, np.where(ok[..., 1], start, start + 1)), x0)
    stop = np.minimum(np.where(ok[..., 3], stop + 1, np.where(ok[..., 2], stop, stop - 1)), x1)
    lengths = np.where(np.arange(ys.shape[1]) < height[:, None], np.maximum(stop - start, 0), 0)
    # after each quad, the first row that a later quad still reads (after the last, the end of every row read)
    needed_from = np.append(np.minimum.accumulate(y0[::-1])[::-1][1:], y1.max(initial=0))
    released = 0
    for rows, firsts, counts, needed in zip(ys.tolist(), start.tolist(), lengths.tolist(), needed_from.tolist()):
        runs = [image.data[y, x : x + n] for y, x, n in zip(rows, firsts, counts) if n]
        values = np.concatenate(runs) if runs else np.empty((0, 3), image.data.dtype)
        _release(image.data[released:needed])
        released = needed
        yield values


def extract_chart(image: LinearImage, grid: ChartGridSpec) -> ChartSamples:
    """Sample the 24 chart patches as trimmed means of their inset regions.

    Each patch is the axis-aligned cell of the 6x4 grid shrunk by the inset
    fraction on every side, mapped into the image through the bilinear quad
    defined by the grid corners.
    """
    corners = grid.corners
    if (corners > (image.width, image.height)).any():
        raise ValueError("chart grid corner outside image bounds")

    # every patch's quad in one call: (24, 4, 2), patches in row-major order
    c = np.arange(CHART_PATCHES) % CHART_COLS
    r = np.arange(CHART_PATCHES) // CHART_COLS
    u0, u1 = (c + grid.inset) / CHART_COLS, (c + 1 - grid.inset) / CHART_COLS
    v0, v1 = (r + grid.inset) / CHART_ROWS, (r + 1 - grid.inset) / CHART_ROWS
    quads = _bilinear_point(
        corners, np.stack([u0, u1, u1, u0], axis=1), np.stack([v0, v0, v1, v1], axis=1)
    )
    patches = np.zeros((CHART_PATCHES, 3))
    for idx, values in enumerate(_pixels_in_quads(image, quads)):
        if values.shape[0] < 4:
            raise ValueError(f"patch {idx} region has {values.shape[0]} pixels (< 4)")
        patches[idx] = trimmed_mean(values)
    return ChartSamples(patches)


def sample_roi(image: LinearImage, roi: tuple[int, int, int, int]) -> np.ndarray:
    """Trimmed-mean RGB of an axis-aligned (x, y, w, h) region of whole pixels, checked by check_roi."""
    x, y, w, h = check_roi(roi, "ROI")
    if x + w > image.width or y + h > image.height:
        raise ValueError(f"ROI {short_repr(roi)} outside image bounds")
    return trimmed_mean(image.data[y : y + h, x : x + w])


def chart_image(patches, patch_size: int) -> np.ndarray:
    """A (24, 3) chart drawn as patch_size squares in row-major order, 6 across and 4 down."""
    rows = as_array(patches, (CHART_PATCHES, 3), "patches").reshape(CHART_ROWS, CHART_COLS, 3)
    return rows.repeat(patch_size, axis=0).repeat(patch_size, axis=1)


def _comparison_colors(target: ChartSamples, measured: ChartSamples, white_index: int) -> np.ndarray:
    """The comparison chart's (2, 24, 3) color table: the target, then the exposure-matched measured chart.

    One scalar on every channel of every measured patch brings the white
    patch's green channel to the target's; where either green is zero (fully
    degenerate lighting) the measured chart is left unscaled. The table passes
    the image check, so an overflowing scale raises ValueError naming its entry.
    """
    ref_g, sub_g = target.white(white_index)[1], measured.white(white_index)[1]
    # a ratio or a scaled value past the float range is inf, and 0 * inf is NaN: the image check rejects both
    with np.errstate(over="ignore", invalid="ignore"):
        scale = ref_g / sub_g if ref_g > 0 and sub_g > 0 else 1.0
        colors = np.stack([target.patches, measured.patches * scale])
    return _checked(colors, (2, CHART_PATCHES, 3), "image", nonneg=True)


def render_comparison_chart(target: ChartSamples, measured: ChartSamples, white_index: int) -> np.ndarray:
    """The comparison chart as (192, 288, 3) uint16 display codes, for write_png16.

    Target values are drawn as 48-pixel squares, with the exposure-matched
    measured values (see _comparison_colors) as inset circles. Encoding is
    element by element and drawing only selects values, so the chart's 48
    colors are encoded once each and then laid out: the codes are those of the
    drawn linear image encoded pixel by pixel.
    """
    codes = _encode16(_comparison_colors(target, measured, white_index))
    patch_size = 48
    radius = patch_size * 0.33
    yy, xx = np.mgrid[0:patch_size, 0:patch_size]
    circle = (xx + 0.5 - patch_size / 2) ** 2 + (yy + 0.5 - patch_size / 2) ** 2 <= radius**2
    # which samples of a chart row's 48 pixel rows lie inside a circle: (48, 6 * 48 * 3)
    inside = np.tile(circle.repeat(3, axis=1), CHART_COLS)
    # the target (0) and measured (1) codes of each chart row, each repeated across its square: (2, 4, 1, 864)
    rows = codes.reshape(2, CHART_ROWS, CHART_COLS, 1, 3).repeat(patch_size, axis=3).reshape(2, CHART_ROWS, 1, -1)
    chart = np.empty((CHART_ROWS, patch_size, inside.shape[1]), np.uint16)  # (chart row, pixel row, sample)
    chart[...] = rows[0]
    np.copyto(chart, rows[1], where=inside)
    return chart.reshape(CHART_ROWS * patch_size, CHART_COLS * patch_size, 3)


def _encode16(linear: np.ndarray) -> np.ndarray:
    """Scene-linear values as 16-bit display codes: x ** (1/2.4), clipped to [0, 1], scaled by 65535, rounded.

    Element by element at the input's float precision, so encoding an
    image's distinct colors gives the codes of encoding each of its pixels.
    """
    encoded = linear ** (1 / 2.4)
    np.clip(encoded, 0.0, 1.0, out=encoded)
    encoded *= 65535.0
    np.round(encoded, out=encoded)
    return encoded.astype(np.uint16)


# --- file formats -----------------------------------------------------------


def read_pfm(path) -> np.ndarray:
    """Read a 3-channel PFM file; returns (h, w, 3) float32, rows top-to-bottom, read-only.

    The values are the file's own, in native byte order; widening them to
    float64 is exact. The payload is mapped, not copied. A native-order file is
    mapped read-only, and its readers release its pages once read (_blocks,
    _pixels_in_quads).
    A file in the other byte order is mapped copy-on-write and swapped in
    place, which never reaches the file, and is never released. Either way
    the array is read-only: copy it to write to it.
    """
    with open(path, "rb") as f:
        lines = _lines(f, f"{path}: malformed PFM header: ")
        magic = next(lines, b"").strip()
        if magic != b"PF":
            raise ValueError(f"{path}: not a color PFM file (magic {short_repr(magic)})")
        size, scale = next(lines, b""), next(lines, b"")
        try:
            width, height = (_parse(int, t) for t in size.split())
            scale = _parse(float, scale)
            # the scale's sign gives the byte order; zero, NaN and an infinity give none
            if not 0.0 < abs(scale) < np.inf:
                raise ValueError(f"scale must be finite and non-zero, got {scale}")
        except ValueError as exc:
            raise ValueError(f"{path}: malformed PFM header: {exc}") from None
        if width < 0 or height < 0:
            raise ValueError(f"{path}: negative PFM dimensions {width} x {height}")
        # checked before mapping, so a short payload fails with this message
        if os.fstat(f.fileno()).st_size - f.tell() < width * height * 12:
            raise ValueError(f"{path}: truncated PFM payload")
        dtype = np.dtype("<f4" if scale < 0 else ">f4")
        try:
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ if dtype.isnative else mmap.ACCESS_COPY)
        except OSError as exc:
            raise OSError(exc.errno, f"cannot map PFM file: {exc.strerror}", str(path)) from None
        data = np.frombuffer(mapped, dtype, width * height * 3, f.tell())
    if not dtype.isnative:
        data = data.byteswap(inplace=True).view(np.float32)
        data.flags.writeable = False
    return data.reshape(height, width, 3)[::-1]  # PFM stores rows bottom-to-top


def _lines(f, where: str):
    """Yield text or binary file `f`'s lines until f.read(0) ("" or b""); past _MAX_LINE, ValueError after `where`."""
    for lineno, line in enumerate(iter(lambda: f.readline(_MAX_LINE + 1), f.read(0)), start=1):
        if len(line) > _MAX_LINE:
            raise ValueError(f"{where}line {lineno}: longer than {_MAX_LINE} characters")
        yield line


def _parse(kind: type, text):
    """int(text) or float(text), text str or bytes; the ValueError abbreviates `text`, which Python's repeats whole."""
    try:
        return kind(text)
    except ValueError as exc:  # Python's message is "<reason>: <repr of text>"
        raise ValueError(f"{str(exc).partition(': ')[0]}: {short_repr(text)}") from None


def write_pfm(path, data: np.ndarray) -> None:
    """Write (h, w, 3) data as little-endian scene-linear PFM."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) data, got {data.shape}")
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(b"PF\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")
        f.write(np.flipud(data).astype("<f4").tobytes())


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png16(path, codes: np.ndarray) -> None:
    """Write (h, w, 3) uint16 codes, such as _encode16 returns, as a 16-bit RGB PNG, every row unfiltered."""
    if not isinstance(codes, np.ndarray) or codes.dtype != np.uint16 or codes.ndim != 3 or codes.shape[2] != 3:
        got = f"{codes.dtype} of shape {codes.shape}" if isinstance(codes, np.ndarray) else short_repr(codes)
        raise ValueError(f"expected (h, w, 3) uint16 codes, got {got}")
    h, w = codes.shape[:2]
    # each row is filter byte 0 followed by its big-endian 16-bit samples
    raw = np.zeros((h, 1 + w * 6), np.uint8)
    raw[:, 1:].view(">u2").reshape(h, w, 3)[...] = codes
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(_png_chunk(b"IHDR", ihdr))
        f.write(_png_chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(_png_chunk(b"IEND", b""))


def write_chart_csv(path, chart: ChartSamples) -> None:
    """Serialize chart samples as patch_index,r,g,b rows (full precision)."""
    with open(path, "w", newline="") as f:
        f.write("patch_index,r,g,b\n")
        for i, (r, g, b) in enumerate(chart.patches):
            f.write(f"{i},{float(r)!r},{float(g)!r},{float(b)!r}\n")


def read_chart_csv(path) -> ChartSamples:
    patches = np.zeros((CHART_PATCHES, 3))
    seen = set()
    # a byte that is not UTF-8 decodes to U+FFFD, which fails its row's parse, naming the line
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = _lines(f, f"{path}, ")
        header = next(lines, "").strip()
        if header != "patch_index,r,g,b":
            raise ValueError(f"{path}: unexpected chart CSV header {short_repr(header)}")
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            try:
                idx_s, r, g, b = line.split(",")
                idx, rgb = _parse(int, idx_s), (_parse(float, r), _parse(float, g), _parse(float, b))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            if not 0 <= idx < CHART_PATCHES:
                raise ValueError(f"{path}, line {lineno}: patch index {idx} outside [0, {CHART_PATCHES})")
            if not all(0.0 <= v < np.inf for v in rgb):  # NaN fails both comparisons
                raise ValueError(f"{path}, line {lineno}: r, g, b must be finite and >= 0, got {rgb}")
            if idx in seen:
                raise ValueError(f"{path}, line {lineno}: duplicate patch index {idx}")
            patches[idx] = rgb
            seen.add(idx)
    if len(seen) != CHART_PATCHES:
        raise ValueError(f"{path}: expected {CHART_PATCHES} patches, got {len(seen)}")
    return ChartSamples(patches)

"""C-source renderer for the compiled-kernel backend.

Each hot kernel of :mod:`repro.nn.backend` is *rendered* to a small,
self-contained C translation unit, specialized at render time for the
operator's compile-time shape (for the convolution lowering, the window
``kernel / stride / padding`` and the plane ``height x width``) and the
element dtype; the plane count is the only runtime extent of a conv
kernel, so one compiled object serves every batch size.  The pattern follows
tinygrad's ``renderer/cstyle.py`` → ``runtime/ops_clang.py`` split: render
to C-style source here, compile and ``dlopen`` in
:mod:`repro.nn.cjit.compiler`.

Exactness contract (mirrored by the conformance tests): every kernel
reproduces its NumPy counterpart **bit for bit**.

* ``im2col`` / ``col2im`` are pure indexing (gather / ordered scatter-add)
  through a zero-padded scratch plane and reproduce the NumPy kernels
  **bit-identically** — ``col2im`` accumulates contributions in the same
  ascending ``(i, j)`` window order as the NumPy loop, and compilation pins
  ``-ffp-contract=off`` so no FMA contraction changes a rounding.
* ``adam_update`` replays the exact NumPy operation sequence (scalars
  pre-cast to the parameter dtype, one rounding per
  multiply/add/sqrt/divide) and is **bit-identical** too.
* ``leaky_relu`` is one compare and one multiply per element, NaN
  propagating like ``np.where``.
* ``bn_bwd_dx`` performs the NumPy reference's two multiplies then two
  adds per element and is **bit-identical**.
* ``ldpc_min_sum`` (float64 only) decodes the codewords of a call in
  lockstep, one per SIMD lane, each lane replaying the NumPy loop's
  operations in its order — variable totals
  ``llr + ((m0 + m1) + m2 ...)`` in ascending check order, messages
  ``((scale * sign product) * sign_k) * magnitude``, the second minimum
  counting duplicates, magnitudes capped at ``LDPC_MESSAGE_CAP`` — and is
  **bit-identical** on LLRs within that cap.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.nn.backend import LDPC_MESSAGE_CAP, _conv_out

__all__ = ["KernelSpec", "render_kernel", "conv_spec", "update_spec",
           "elementwise_spec", "bn_bwd_dx_spec", "ldpc_min_sum_spec",
           "standard_kernel_specs", "SUPPORTED_DTYPES"]

#: Dtypes the renderer can specialize for (everything else falls back).
SUPPORTED_DTYPES = ("float32", "float64")

#: ``LDPC_MESSAGE_CAP`` as a C double literal (``repr`` round-trips exactly).
_LDPC_CAP = repr(LDPC_MESSAGE_CAP)

_CTYPE = {"float32": "float", "float64": "double"}
_SUFFIX = {"float32": "f32", "float64": "f64"}
#: The dtype's libm square root, for the Adam update.
_SQRT = {"float32": "sqrtf", "float64": "sqrt"}

_PRELUDE = """\
/* Rendered by repro.nn.cjit.render — do not edit. */
#include <math.h>
#include <stdint.h>
typedef int64_t i64;
"""

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
#: Array arguments are passed as integer addresses: ``c_void_p`` converts
#: a Python int with no per-call ``POINTER`` object.
_PTR = ctypes.c_void_p


@dataclass(frozen=True)
class KernelSpec:
    """One renderable kernel: operator + dtype + baked shape constants.

    ``params`` are the compile-time specialization constants (for the conv
    kernels the window geometry and the plane shape); they are baked into
    the source as ``#define``-free literal constants so the compiler can
    unroll and strength-reduce every loop but the one over planes.
    """

    op: str
    dtype: str
    params: tuple[tuple[str, int], ...] = ()
    #: ctypes argument types of the exported function, in call order.
    argtypes: tuple = field(default=(), compare=False)
    #: ctypes result type (None for void kernels).
    restype: object = field(default=None, compare=False)

    @property
    def symbol(self) -> str:
        """The exported C function name (also the cache display name)."""
        tail = "".join(f"_{name[0]}{value}" for name, value in self.params)
        return f"{self.op}_{_SUFFIX[self.dtype]}{tail}"

    def configure(self, library: ctypes.CDLL):
        """Fetch the symbol from a loaded library with typed signature."""
        fn = getattr(library, self.symbol)
        fn.argtypes = list(self.argtypes)
        fn.restype = self.restype
        return fn


# --------------------------------------------------------------------- #
# Spec constructors (one per operator family)
# --------------------------------------------------------------------- #
def conv_spec(op: str, dtype: str, kernel: int, stride: int, padding: int,
              height: int, width: int) -> KernelSpec:
    """``im2col`` / ``col2im`` spec with the window and the plane shape
    baked in; the C function takes ``(src, dst, planes)`` and returns
    nonzero when it cannot allocate its scratch plane.

    A plane smaller than the window (an empty output) has no kernel: the
    backend answers it in Python.
    """
    if kernel < 1 or stride < 1 or padding < 0:
        raise ValueError(f"invalid conv window: kernel {kernel}, stride "
                         f"{stride}, padding {padding}")
    if min(_conv_out(height, kernel, stride, padding),
           _conv_out(width, kernel, stride, padding)) < 1:
        raise ValueError(f"a {height}x{width} plane has no {kernel}x{kernel}"
                         f"/s{stride}/p{padding} window: empty output")
    return KernelSpec(
        op=op, dtype=dtype,
        params=(("kernel", kernel), ("stride", stride), ("padding", padding),
                ("height", height), ("width", width)),
        argtypes=(_PTR, _PTR, _I64), restype=ctypes.c_int,
    )


def update_spec(op: str, dtype: str) -> KernelSpec:
    """In-place Adam update spec (hyper-parameters stay runtime)."""
    if op != "adam_update":
        raise ValueError(f"unknown update kernel {op!r}")
    return KernelSpec(op=op, dtype=dtype,
                      argtypes=(_PTR, _PTR, _PTR, _PTR, _I64,
                                _F64, _F64, _F64, _F64, _F64, _F64))


def elementwise_spec(op: str, dtype: str) -> KernelSpec:
    """Single-pass elementwise spec (currently ``leaky_relu``)."""
    return KernelSpec(op=op, dtype=dtype, argtypes=(_PTR, _PTR, _I64, _F64))


def bn_bwd_dx_spec(dtype: str) -> KernelSpec:
    """Train-mode BatchNorm input-gradient spec (``g*s1 + x*s2 + s3``)."""
    return KernelSpec(op="bn_bwd_dx", dtype=dtype,
                      argtypes=(_PTR, _PTR, _PTR, _I64, _I64, _I64,
                                _PTR, _PTR, _PTR))


def ldpc_min_sum_spec(dtype: str) -> KernelSpec:
    """Normalised min-sum LDPC decoding spec; float64 LLRs only.  The C
    function returns its lane count, or 0 when it cannot allocate its
    scratch."""
    if dtype != "float64":
        raise ValueError(f"ldpc_min_sum takes float64 LLRs, not {dtype!r}")
    return KernelSpec(op="ldpc_min_sum", dtype=dtype,
                      argtypes=(_PTR, _I64, _I64, _I64, _I64, _PTR, _PTR,
                                _I64, _PTR, _I64, _F64, _PTR, _PTR, _PTR),
                      restype=ctypes.c_int)


# --------------------------------------------------------------------- #
# Source rendering
# --------------------------------------------------------------------- #
def _plane_geometry(spec: KernelSpec) -> SimpleNamespace:
    """Render-time constants of a conv spec.

    Windows read a ``ph x pw`` padded plane, ``ph = stride*(oh-1)+kernel``:
    the zero-padded input cut to the rows and columns some window reaches.
    The input's first ``rows x cols`` corner lands at offset ``padding`` in
    it; input rows and columns past that corner reach no window.
    """
    g = SimpleNamespace(**dict(spec.params))
    g.oh = _conv_out(g.height, g.kernel, g.stride, g.padding)
    g.ow = _conv_out(g.width, g.kernel, g.stride, g.padding)
    g.ph = g.stride * (g.oh - 1) + g.kernel
    g.pw = g.stride * (g.ow - 1) + g.kernel
    g.rows = max(0, min(g.height, g.ph - g.padding))
    g.cols = max(0, min(g.width, g.pw - g.padding))
    return g


_CONV_PRELUDE = """\
#include <stdlib.h>
#include <string.h>
"""


def _render_im2col(spec: KernelSpec) -> str:
    T = _CTYPE[spec.dtype]
    g = _plane_geometry(spec)
    K, S, P, W = g.kernel, g.stride, g.padding, g.width
    fill = "" if not (g.rows and g.cols) else f"""
        for (i64 y = 0; y < {g.rows}; ++y)
            memcpy(pad + (y + {P}) * {g.pw} + {P}, plane + y * {W},
                   {g.cols} * sizeof({T}));"""
    return _CONV_PRELUDE + f"""
/* Gather {g.height}x{W} NCHW planes into ({K}, {K}, {g.oh}, {g.ow}) columns.
   Each plane is copied into a zeroed {g.ph}x{g.pw} scratch plane, whose
   padding border stays zero, so every window row is a constant-bound
   strided copy with no bounds checks.  Pure indexing: bit-identical to
   the NumPy pad + strided-slice kernel.  Returns nonzero when the scratch
   plane cannot be allocated. */
int {spec.symbol}(const {T}* restrict x, {T}* restrict cols, i64 planes) {{
    {T}* pad = calloc({g.ph * g.pw}, sizeof({T}));
    if (!pad) return 1;
    for (i64 n = 0; n < planes; ++n) {{
        const {T}* plane = x + n * {g.height * W};
        {T}* out = cols + n * {K * K * g.oh * g.ow};{fill}
        for (i64 i = 0; i < {K}; ++i)
        for (i64 j = 0; j < {K}; ++j)
        for (i64 oy = 0; oy < {g.oh}; ++oy) {{
            const {T}* row = pad + (i + {S} * oy) * {g.pw} + j;
            for (i64 ox = 0; ox < {g.ow}; ++ox)
                out[ox] = row[{S} * ox];
            out += {g.ow};
        }}
    }}
    free(pad);
    return 0;
}}
"""


def _render_bn_bwd_dx(spec: KernelSpec) -> str:
    T = _CTYPE[spec.dtype]
    return f"""\
/* Train-mode BatchNorm input gradient g*s1[ch] + x*s2[ch] + s3[ch]:
   two multiplies then two adds per element, the exact rounding order of
   the NumPy reference (no FMA contraction). */
void {spec.symbol}(const {T}* restrict g, const {T}* restrict x,
                   {T}* restrict out, i64 n, i64 c, i64 inner,
                   const {T}* restrict s1, const {T}* restrict s2,
                   const {T}* restrict s3) {{
    const i64 outer = n / (c * inner);
    for (i64 o = 0; o < outer; ++o)
    for (i64 ch = 0; ch < c; ++ch) {{
        const {T} s1c = s1[ch];
        const {T} s2c = s2[ch];
        const {T} s3c = s3[ch];
        const i64 base = (o * c + ch) * inner;
        for (i64 k = 0; k < inner; ++k) {{
            {T} v = g[base + k] * s1c;
            const {T} term = x[base + k] * s2c;
            v = v + term;
            v = v + s3c;
            out[base + k] = v;
        }}
    }}
}}
"""


def _render_col2im(spec: KernelSpec) -> str:
    T = _CTYPE[spec.dtype]
    g = _plane_geometry(spec)
    K, S, P, H, W = g.kernel, g.stride, g.padding, g.height, g.width
    copy = "" if not (g.rows and g.cols) else f"""
        for (i64 y = 0; y < {g.rows}; ++y)
            memcpy(plane + y * {W}, pad + (y + {P}) * {g.pw} + {P},
                   {g.cols} * sizeof({T}));"""
    if g.rows and g.cols < W:
        copy += f"""
        for (i64 y = 0; y < {g.rows}; ++y)
            memset(plane + y * {W} + {g.cols}, 0,
                   {W - g.cols} * sizeof({T}));"""
    if g.rows < H:
        copy += f"""
        memset(plane + {g.rows * W}, 0, {(H - g.rows) * W} * sizeof({T}));"""
    return _CONV_PRELUDE + f"""
/* Scatter-add ({K}, {K}, {g.oh}, {g.ow}) columns onto {H}x{W} NCHW planes.
   Each plane accumulates in a zeroed {g.ph}x{g.pw} scratch plane in
   ascending (i, j) window order — the NumPy loop's order, so the sums are
   bit-identical — and its interior is then copied out; input rows and
   columns no window reaches are zero.  Returns nonzero when the scratch
   plane cannot be allocated. */
int {spec.symbol}(const {T}* restrict cols, {T}* restrict out, i64 planes) {{
    {T}* pad = malloc({g.ph * g.pw} * sizeof({T}));
    if (!pad) return 1;
    for (i64 n = 0; n < planes; ++n) {{
        const {T}* col = cols + n * {K * K * g.oh * g.ow};
        {T}* plane = out + n * {H * W};
        memset(pad, 0, {g.ph * g.pw} * sizeof({T}));
        for (i64 i = 0; i < {K}; ++i)
        for (i64 j = 0; j < {K}; ++j)
        for (i64 oy = 0; oy < {g.oh}; ++oy) {{
            {T}* row = pad + (i + {S} * oy) * {g.pw} + j;
            for (i64 ox = 0; ox < {g.ow}; ++ox)
                row[{S} * ox] += col[ox];
            col += {g.ow};
        }}{copy}
    }}
    free(pad);
    return 0;
}}
"""


def _render_adam_update(spec: KernelSpec) -> str:
    T = _CTYPE[spec.dtype]
    return f"""\
/* One in-place Adam step (moment buffers updated in place): the exact
   NumPy sequence — m = m*b1 + (1-b1)*g; v = v*b2 + ((1-b2)*g)*g;
   p -= lr*(m/bc1) / (sqrt(v/bc2) + eps) — with every scalar pre-cast
   to {T} and no FMA contraction, so the update is bit-identical. */
void {spec.symbol}({T}* p, const {T}* g, {T}* m, {T}* v, i64 n,
                   double lr, double beta1, double beta2, double eps,
                   double bias_correction1, double bias_correction2) {{
    const {T} lr_t = ({T})lr;
    const {T} b1_t = ({T})beta1;
    const {T} b2_t = ({T})beta2;
    const {T} c1_t = ({T})(1.0 - beta1);
    const {T} c2_t = ({T})(1.0 - beta2);
    const {T} eps_t = ({T})eps;
    const {T} bc1_t = ({T})bias_correction1;
    const {T} bc2_t = ({T})bias_correction2;
    for (i64 i = 0; i < n; ++i) {{
        const {T} gi = g[i];
        const {T} mi = m[i] * b1_t + c1_t * gi;
        {T} vt = c2_t * gi;
        vt = vt * gi;
        const {T} vi = v[i] * b2_t + vt;
        m[i] = mi;
        v[i] = vi;
        const {T} m_hat = mi / bc1_t;
        const {T} v_hat = vi / bc2_t;
        p[i] -= (lr_t * m_hat) / ({_SQRT[spec.dtype]}(v_hat) + eps_t);
    }}
}}
"""


def _render_leaky_relu(spec: KernelSpec) -> str:
    T = _CTYPE[spec.dtype]
    return f"""\
/* where(x > 0, x, x * slope) in one pass (NaN propagates like NumPy). */
void {spec.symbol}(const {T}* x, {T}* out, i64 n, double slope) {{
    const {T} s = ({T})slope;
    for (i64 i = 0; i < n; ++i) {{
        const {T} xi = x[i];
        out[i] = xi > ({T})0 ? xi : xi * s;
    }}
}}
"""


def _render_ldpc_min_sum(spec: KernelSpec) -> str:
    return f"""\
#include <stdlib.h>

/* Normalised min-sum LDPC decoding (Chen & Fossorier 2002) of a batch in
   lockstep groups of LANES codewords, one codeword per SIMD lane.  LANES
   is the build target's double-vector width; GCC/Clang vector extensions
   at that width compile to one register per value (wider vectors split
   into several and run slower than one lane at a time).  Messages,
   totals and LLRs are stored edge- or variable-major with the lanes
   contiguous, so every gather is one vector load.
   Each lane replays the float64 operations of the NumPy reference
   (ArrayBackend.ldpc_min_sum) in the same order:
   - a variable's total is llr + ((m0 + m1) + m2 ...) over its edges in
     ascending check order; padded slots read the zero message slot;
   - a check sends ((scale * sign product) * sign_k) * magnitude, the
     magnitude being the smallest of the other inputs: the second minimum
     counts duplicates and the first occurrence of the minimum receives
     it; a check of degree <= 1 sends its smallest magnitude;
   - both magnitudes are capped at {_LDPC_CAP}, so a total never
     overflows.
   A lane freezes its word, iteration count and success flag at the
   iteration it converges, and keeps computing with the others; lanes past
   the batch end start converged.  Padded check slots hold variable n;
   padded variable slots hold an edge id no check slot writes.
   Returns LANES, or 0 when the scratch cannot be allocated. */
#if defined(__AVX512F__)
#define LANES 8
#elif defined(__AVX__)
#define LANES 4
#else
#define LANES 2
#endif

typedef double vd __attribute__((vector_size(8 * LANES)));
typedef long long vl __attribute__((vector_size(8 * LANES)));

/* Per lane: mask ? a : b, bit for bit. */
static inline vd blend(vl mask, vd a, vd b) {{
    return (vd)(((vl)a & mask) | ((vl)b & ~mask));
}}

static inline vl blend_bits(vl mask, vl a, vl b) {{
    return (a & mask) | (b & ~mask);
}}

static inline int any_lane(vl mask) {{
    for (int l = 0; l < LANES; ++l)
        if (mask[l]) return 1;
    return 0;
}}

/* Per lane, all ones where some check has odd parity; a variable's word
   is all ones in the lanes where its bit is 1. */
static vl odd_checks(const vl* word, i64 n, i64 checks, i64 width,
                     const i64* check_variables) {{
    vl odd = {{0}};
    for (i64 c = 0; c < checks; ++c) {{
        const i64* cv = check_variables + c * width;
        vl parity = {{0}};
        for (i64 j = 0; j < width; ++j)
            if (cv[j] < n) parity ^= word[cv[j]];
        odd |= parity;
    }}
    return odd;
}}

static void variable_totals(const vd* llr, const vd* msg, i64 n,
                            i64 vwidth, const i64* variable_edges,
                            vd* total) {{
    for (i64 v = 0; v < n; ++v) {{
        const i64* ve = variable_edges + v * vwidth;
        vd acc = msg[ve[0]];
        for (i64 j = 1; j < vwidth; ++j) acc += msg[ve[j]];
        total[v] = llr[v] + acc;
    }}
}}

static void check_updates(const vd* total, vd* msg, vd* in, i64 n,
                          i64 checks, i64 width, const i64* check_edges,
                          const i64* check_variables, double scale) {{
    const vd zero = {{0}};
    const vd one = zero + 1.0, minus_one = zero - 1.0;
    const vd cap = zero + {_LDPC_CAP}, scales = zero + scale;
    const vl none = {{0}}, magnitude_bits = none + 0x7fffffffffffffffLL;
    for (i64 c = 0; c < checks; ++c) {{
        const i64* ce = check_edges + c * width;
        const i64* cv = check_variables + c * width;
        vd min1 = zero + INFINITY, min2 = zero + INFINITY;
        vl first = none, negative = none;
        i64 degree = 0;
        for (i64 j = 0; j < width; ++j) {{
            if (cv[j] >= n) continue;
            const vd x = total[cv[j]] - msg[ce[j]];
            const vd magnitude = (vd)((vl)x & magnitude_bits);
            in[j] = x;
            negative ^= (vl)(x < zero);
            /* Branch-free form of: if (magnitude < min1) shift min1 into
               min2; else if (magnitude < min2) replace min2.  Magnitudes
               are never NaN or -0.0. */
            const vl below = (vl)(magnitude < min1);
            const vd larger = blend(below, min1, magnitude);
            min2 = blend((vl)(larger < min2), larger, min2);
            first = blend_bits(below, none + j, first);
            min1 = blend(below, magnitude, min1);
            ++degree;
        }}
        if (degree <= 1) min2 = min1;
        min1 = blend((vl)(min1 < cap), min1, cap);
        min2 = blend((vl)(min2 < cap), min2, cap);
        const vd signed_scale = scales * blend(negative, minus_one, one);
        for (i64 j = 0; j < width; ++j) {{
            if (cv[j] >= n) continue;
            const vd s = blend((vl)(in[j] < zero), minus_one, one);
            msg[ce[j]] = (signed_scale * s)
                * blend((vl)(first == none + j), min2, min1);
        }}
    }}
}}

int {spec.symbol}(const double* restrict llrs, i64 batch, i64 n,
                  i64 checks, i64 width,
                  const i64* restrict check_edges,
                  const i64* restrict check_variables,
                  i64 vwidth, const i64* restrict variable_edges,
                  i64 max_iterations, double scale,
                  i64* restrict codewords, i64* restrict iterations,
                  uint8_t* restrict success) {{
    if (batch <= 0) return LANES;
    const i64 slots = checks * width + 1;
    char* block = malloc((slots + 2 * n + width + 1) * sizeof(vd)
                         + n * sizeof(vl));
    if (!block) return 0;
    vd* msg = (vd*)(block + (-(uintptr_t)block & (sizeof(vd) - 1)));
    vd* llr = msg + slots;
    vd* total = llr + n;
    vd* in = total + n;
    vl* word = (vl*)(in + width);
    const vd zero = {{0}};
    const vl none = {{0}};
    for (i64 start = 0; start < batch; start += LANES) {{
        const i64 lanes = batch - start < LANES ? batch - start : LANES;
        vl live = none;
        for (i64 l = 0; l < lanes; ++l) live[l] = -1;
        for (i64 v = 0; v < n; ++v)
            for (i64 l = 0; l < LANES; ++l)
                llr[v][l] = l < lanes ? llrs[(start + l) * n + v] : 0.0;
        for (i64 v = 0; v < n; ++v) word[v] = (vl)(llr[v] < zero);
        vl ok = ~odd_checks(word, n, checks, width, check_variables);
        vl done = none;
        vl active = live & ~ok;
        if (any_lane(active)) {{
            for (i64 e = 0; e < slots; ++e) msg[e] = zero;
            variable_totals(llr, msg, n, vwidth, variable_edges, total);
        }}
        for (i64 iteration = 1;
             iteration <= max_iterations && any_lane(active); ++iteration) {{
            check_updates(total, msg, in, n, checks, width, check_edges,
                          check_variables, scale);
            variable_totals(llr, msg, n, vwidth, variable_edges, total);
            for (i64 v = 0; v < n; ++v)
                word[v] = blend_bits(active, (vl)(total[v] < zero), word[v]);
            const vl odd = odd_checks(word, n, checks, width,
                                      check_variables);
            ok = blend_bits(active, ~odd, ok);
            done = blend_bits(active, none + iteration, done);
            active &= odd;
        }}
        for (i64 l = 0; l < lanes; ++l) {{
            i64* out = codewords + (start + l) * n;
            for (i64 v = 0; v < n; ++v) out[v] = word[v][l] & 1;
            iterations[start + l] = done[l];
            success[start + l] = ok[l] != 0;
        }}
    }}
    free(block);
    return LANES;
}}
"""


_RENDERERS = {
    "im2col": _render_im2col,
    "col2im": _render_col2im,
    "adam_update": _render_adam_update,
    "leaky_relu": _render_leaky_relu,
    "bn_bwd_dx": _render_bn_bwd_dx,
    "ldpc_min_sum": _render_ldpc_min_sum,
}


def render_kernel(spec: KernelSpec) -> str:
    """The complete C translation unit for one kernel spec."""
    if spec.dtype not in SUPPORTED_DTYPES:
        raise ValueError(f"cannot render dtype {spec.dtype!r}; supported: "
                         f"{SUPPORTED_DTYPES}")
    try:
        body = _RENDERERS[spec.op]
    except KeyError:
        raise ValueError(f"unknown kernel op {spec.op!r}; available: "
                         f"{sorted(_RENDERERS)}") from None
    return _PRELUDE + "\n" + body(spec)


def _preset_conv_planes() -> list[tuple[int, int, int, int]]:
    """``(kernel, stride, padding, side)`` of every conv plane the models
    of the tiny, small and paper :class:`~repro.core.ModelConfig` presets
    lower, forward and backward alike."""
    from repro.core.config import ModelConfig  # repro.core imports repro.nn

    planes = set()
    for config in (ModelConfig.tiny(), ModelConfig.small(),
                   ModelConfig.paper()):
        size = config.array_size
        # The U-Net's Down/Up blocks and the PatchGAN's strided layers:
        # 4x4/s2/p1 at every side from the array size down to 2.
        planes.update((4, 2, 1, size >> depth)
                      for depth in range(config.num_down_layers))
        # The PatchGAN's 4x4/s1/p1 head, after its strided layers.
        planes.add((4, 1, 1, size >> len(config.discriminator_channels)))
        # The ResNet encoder's 3x3/s1/p1 convolutions at the array size.
        planes.add((3, 1, 1, size))
    return sorted(planes)


def standard_kernel_specs(dtypes=SUPPORTED_DTYPES) -> list[KernelSpec]:
    """The kernel set ``--warm`` pre-compiles into the cache: every kernel
    the preset models train and sample with."""
    planes = _preset_conv_planes()
    specs: list[KernelSpec] = []
    for dtype in dtypes:
        for kernel, stride, padding, side in planes:
            for op in ("im2col", "col2im"):
                specs.append(conv_spec(op, dtype, kernel, stride, padding,
                                       side, side))
        specs.append(update_spec("adam_update", dtype))
        specs.append(elementwise_spec("leaky_relu", dtype))
        specs.append(bn_bwd_dx_spec(dtype))
        if dtype == "float64":
            specs.append(ldpc_min_sum_spec(dtype))
    return specs

"""Compiled kernels for the flat-array layer.

The two order-sensitive sweeps in :mod:`repro.sim.arrays` — the budgeted
LIFO bottom-level relaxation walk and the energy transition-log replay —
cannot be vectorized with numpy without changing observable quantities
(visit counts, float summation order).  They are, however, trivial C
loops over the flat buffers the kernel layer already maintains.  This
module compiles them at first use with the host C compiler and loads the
shared object via cffi or :mod:`ctypes`.

Strictly optional: when no compiler is available (or compilation fails
for any reason) :func:`load` returns ``None`` and the host runs the
object-walk/eager reference in ``TaskGraph`` and ``EnergyAccountant``,
which produces bit-identical results — the kernels are pinned against
that reference and the golden fingerprints.  ``REPRO_ARRAY_KERNELS=0``
selects the reference even when a compiler exists.

Exactness notes:

* the relaxation walk is integer-only — no portability concerns;
* the energy replay multiplies/divides/accumulates IEEE doubles in
  exactly the order the eager Python accrual would, and is compiled with
  ``-ffp-contract=off`` so the compiler cannot fuse ``a*b/c`` chains
  into FMAs with different rounding.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

__all__ = ["load"]

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* Fused task submission: dependence validation, CSR row append,
 * pending-predecessor count, and the budgeted LIFO bottom-level
 * relaxation walk (bitwise-faithful port of
 * TaskGraph._relax_bottom_levels; see repro/sim/arrays.py for the
 * semantics commentary) — one call per submit instead of a Python
 * add_task/relax pair, because ctypes marshalling per call is what
 * dominates once the walk itself runs at C speed.
 *
 * bufs is the caller's persistent address block:
 *   bufs[0] bl[n]        current bottom levels
 *   bufs[1] fin[n]       1 iff task finished (uint8)
 *   bufs[2] counts[]     histogram over unfinished tasks (capacity > n,
 *                        ensured by the caller, so new_bl cannot
 *                        overflow it)
 *   bufs[3] indptr / bufs[4] indices   CSR predecessor adjacency
 *   bufs[5] stamp[n]     per-task epoch marks (touched-dedup)
 *   bufs[6] touched[n]   out: distinct task ids whose BL changed
 *                        (first-touch order; capacity n suffices
 *                        because of the dedup)
 *   bufs[7] state_io     {max_bl, max_bl_waiting, epoch, n_touched,
 *                        pending}
 * task_id is the new task's id (== current task count), ne the current
 * edge count; budget < 0 means BL tracking is off (append the row,
 * count pending, skip the walk).  Returns edges visited; -3 on an
 * out-of-range dep id (nothing mutated — the caller re-raises the
 * reference error); -1/-2 on allocation failure (the caller raises
 * MemoryError; -2 means the walk already mutated the buffers, but an
 * OOM'd simulation is dead anyway).
 */
int64_t bl_submit(
    int64_t **bufs,
    const int64_t *dep_ids, int64_t n_deps,
    int64_t task_id, int64_t ne, int64_t budget)
{
    int64_t *bl = bufs[0];
    uint8_t *fin = (uint8_t *)bufs[1];
    int64_t *counts = bufs[2];
    int64_t *indptr = bufs[3];
    int64_t *indices = bufs[4];
    int64_t *stamp = bufs[5];
    int64_t *touched = bufs[6];
    int64_t *state_io = bufs[7];

    int64_t pending = 0;
    for (int64_t i = 0; i < n_deps; i++) {
        int64_t d = dep_ids[i];
        if (d < 0 || d >= task_id) return -3;
        /* The reference counts pending per dep *occurrence*. */
        if (!fin[d]) pending++;
    }
    state_io[3] = 0;
    state_io[4] = pending;
    counts[0]++;  /* the new leaf enters the histogram at BL 0 */
    for (int64_t i = 0; i < n_deps; i++) indices[ne + i] = dep_ids[i];
    indptr[task_id + 1] = ne + n_deps;
    if (budget < 0) return 0;  /* BL maintenance skipped: no walk charged */

    int64_t edges = n_deps;
    int64_t n_front = 0;
    for (int64_t i = 0; i < n_deps; i++)
        if (bl[dep_ids[i]] < 1) n_front++;
    if (n_front == 0) return edges;

    /* Frontier stack: every push follows a strict BL increase, so the
     * total pushes across the walk are bounded by sum(bl_final - bl_
     * initial) <= n * max_bl growth; start at a safe size and grow. */
    int64_t cap_stack = n_front + 64;
    int64_t *stack = (int64_t *)malloc((size_t)cap_stack * sizeof(int64_t));
    if (!stack) return -1;

    int64_t max_bl = state_io[0];
    int64_t max_bl_waiting = state_io[1];
    int64_t epoch = state_io[2] + 1;
    int64_t n_touched = 0;
    int64_t top = 0;

    /* Initial frontier: built from all dep occurrences (duplicates
     * included) before any BL moves, exactly like the reference. */
    for (int64_t i = 0; i < n_deps; i++) {
        int64_t d = dep_ids[i];
        if (bl[d] < 1) stack[top++] = d;
    }
    /* First pass mirrors the reference's frontier loop: histogram moves
     * happen per occurrence but duplicates net to zero because bl[d]
     * is updated in the same iteration. */
    for (int64_t i = 0; i < top; i++) {
        int64_t d = stack[i];
        if (!fin[d]) {
            counts[bl[d]]--;
            counts[1]++;
            if (max_bl_waiting < 1) max_bl_waiting = 1;
        }
        bl[d] = 1;
        if (stamp[d] != epoch) {
            stamp[d] = epoch;
            touched[n_touched++] = d;
        }
    }

    while (top > 0) {
        if (edges >= budget) break;
        int64_t nid = stack[--top];
        int64_t nbl = bl[nid];
        if (nbl > max_bl) max_bl = nbl;
        int64_t new_bl = nbl + 1;
        int64_t lo = indptr[nid], hi = indptr[nid + 1];
        edges += hi - lo;
        for (int64_t e = lo; e < hi; e++) {
            int64_t pid = indices[e];
            int64_t pbl = bl[pid];
            if (pbl < new_bl) {
                if (!fin[pid]) {
                    counts[pbl]--;
                    counts[new_bl]++;
                    if (new_bl > max_bl_waiting) max_bl_waiting = new_bl;
                }
                bl[pid] = new_bl;
                if (stamp[pid] != epoch) {
                    stamp[pid] = epoch;
                    touched[n_touched++] = pid;
                }
                if (top == cap_stack) {
                    cap_stack *= 2;
                    int64_t *ns = (int64_t *)realloc(
                        stack, (size_t)cap_stack * sizeof(int64_t));
                    if (!ns) { free(stack); return -2; }
                    stack = ns;
                }
                stack[top++] = pid;
            }
        }
    }
    free(stack);
    state_io[0] = max_bl;
    state_io[1] = max_bl_waiting;
    state_io[2] = epoch;
    state_io[3] = n_touched;
    return edges;
}

/* Energy transition-log replay — the exact additions the eager Python
 * accrual performs at each set_state edge, in append order:
 *   dt = t[i] - last_change[core];  j = cur_power[core] * dt / 1e9;
 *   core_energy[core] += j; bucket_energy[b] += j; bucket_time[b] += dt;
 * then the new (power, bucket) is installed for the core.  Returns the
 * transition index of a negative dt (time went backwards), else -1.
 */
int64_t energy_replay(
    const double *t, const int64_t *core,
    const double *power, const int64_t *bidx, int64_t n,
    double *core_energy, double *last_change,
    double *cur_power, int64_t *cur_bidx, uint8_t *has_state,
    double *bucket_energy, double *bucket_time)
{
    const double SEC = 1e9;
    for (int64_t i = 0; i < n; i++) {
        int64_t c = core[i];
        double now = t[i];
        if (has_state[c]) {
            double dt = now - last_change[c];
            if (dt < 0) return i;
            double j = cur_power[c] * dt / SEC;
            int64_t b = cur_bidx[c];
            core_energy[c] += j;
            bucket_energy[b] += j;
            bucket_time[b] += dt;
        } else {
            has_state[c] = 1;
        }
        last_change[c] = now;
        cur_power[c] = power[i];
        cur_bidx[c] = bidx[i];
    }
    return -1;
}
"""


def _cache_path() -> str:
    tag = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    impl = f"{sys.implementation.name}-{sys.version_info[0]}.{sys.version_info[1]}"
    return os.path.join(
        tempfile.gettempdir(), f"repro-ckernels-{tag}-{impl}.so"
    )


def _compile(path: str) -> bool:
    """Compile the kernel source to ``path``; atomic, race-tolerant.

    The source is compiled under one fixed file name (the object embeds
    it) in a private directory, so the same source always yields the
    same ``.so`` bytes.
    """
    cc = os.environ.get("CC", "cc")
    work = tempfile.mkdtemp(
        prefix="repro-ckernels-", dir=os.path.dirname(path) or None
    )
    try:
        with open(os.path.join(work, "repro-ckernels.c"), "w") as f:
            f.write(_C_SOURCE)
        # -ffp-contract=off: the energy replay must round every multiply
        # and divide exactly as CPython does; FMA fusion would not.
        cmd = [
            cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
            "repro-ckernels.c", "-o", "repro-ckernels.so",
        ]
        proc = subprocess.run(
            cmd, cwd=work, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            return False
        os.replace(os.path.join(work, "repro-ckernels.so"), path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        shutil.rmtree(work, ignore_errors=True)


#: Both bindings expose the same calling convention: every pointer
#: parameter is declared as ``int64_t`` and callers pass raw buffer
#: addresses (``array.buffer_info()[0]``) as plain Python ints.  On
#: every supported 64-bit ABI (SysV x86-64, AArch64 AAPCS64) integer
#: and pointer arguments travel in the same registers, so the int
#: declaration is call-compatible with the C prototypes above — and it
#: lets the cffi binding skip per-call pointer-object construction,
#: which is the whole point: the fused submit fires once per task.
_CDEF = """
int64_t bl_submit(int64_t bufs, int64_t dep_ids, int64_t n_deps,
                  int64_t task_id, int64_t ne, int64_t budget);
int64_t energy_replay(int64_t t, int64_t core, int64_t power,
                      int64_t bidx, int64_t n, int64_t core_energy,
                      int64_t last_change, int64_t cur_power,
                      int64_t cur_bidx, int64_t has_state,
                      int64_t bucket_energy, int64_t bucket_time);
"""


def _bind_cffi(path: str):
    """cffi ABI-mode binding — roughly half the per-call overhead of
    ctypes on CPython 3.11, which matters because ``bl_submit`` is
    called once per submitted task."""
    try:
        from cffi import FFI
    except ImportError:
        return None
    try:
        ffi = FFI()
        ffi.cdef(_CDEF)
        return ffi.dlopen(path)
    except Exception:
        return None


def _bind_ctypes(path: str):
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    i64 = ctypes.c_int64
    for name, n_args in (("bl_submit", 6), ("energy_replay", 12)):
        fn = getattr(lib, name)
        fn.restype = i64
        fn.argtypes = [i64] * n_args
    return lib


_loaded = False
_lib = None


def load():
    """The compiled kernel library, or ``None`` if unavailable.

    Compiled once per machine into a content-addressed file under the
    temp directory, then dlopen'd by every process — a worker pool pays
    the compile exactly once (racing compilers both succeed:
    the rename is atomic and the content identical).  Bound through
    cffi when present, ctypes otherwise; both expose ``bl_submit`` /
    ``energy_replay`` taking raw addresses as ints (see ``_CDEF``).
    """
    global _loaded, _lib
    if _loaded:
        return _lib
    _loaded = True
    path = _cache_path()
    try:
        if not os.path.exists(path) and not _compile(path):
            return None
    except OSError:
        return None
    _lib = _bind_cffi(path)
    if _lib is None:
        _lib = _bind_ctypes(path)
    return _lib

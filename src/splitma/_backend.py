"""The transforms, and which library serves which.

Real transforms (rfftn, irfftn) run on numpy.fft, one axis at a time and
in place on the half spectrum, so a forward-inverse pair holds the input,
one half spectrum and the output (about 2.1 fields; numpy's own irfftn
makes a new array per axis and holds about 3.3).  They serve the factor
Poisson solves, the spectral filter and the derivatives of real data
(grid_field.deriv_data): every transform a flow recipe takes on a product
background.  numpy's pocketfft matched scipy's bit for bit on the Poisson
and filter axes at 32^4.

Complex transforms (fftn, ifftn) run on scipy.fft, imported on first use:
the import costs about 0.3 s and 21 MB, which only the callers of complex
4D spectra pay (the identity slices, the torsion of a non-product
background, derivatives of complex data).  They take one worker per CPU
this process may run on.  The workers split the independent transform
lines between them and each line is computed as on one worker, so the
result does not depend on the count (bit for bit; pinned by the tests).

The factor Laplacians and the mixed derivatives u_zw, u_zwb do not come
here: they are matrix products (grid_field) run by numpy's BLAS.  Both
run on up to get_workers() threads of grid_field's slab pool (one per MiB
of field), or on the calling thread for a smaller field, each thread's
BLAS pinned to one thread by OpenBLAS's openblas_set_num_threads_local
(blas_thread_pin), so the threads do not split their small products
again.  Where numpy's BLAS has no such call, they run on the calling
thread alone, unpinned.  A product's sums do not depend on the thread
that runs it, so the result does not depend on the count.

The same threads, as many, run the pointwise work of the identity suite
and of the monitors' subsolution checks on blocks of points
(grid_field.on_blocks; the first block on the calling thread), the
multiplier products of the complex derivatives before their inverse
transform, and the identity slices' operator L inside its slab pass.
They run numpy alone: every transform here is called from the calling
thread.  Each block and chunk is computed as on one thread, so no result
depends on the count.
"""

import ctypes
import functools
import glob
import os

import numpy as np


def get_workers() -> int:
    """Worker count of the complex transforms and of the slab passes: the
    CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@functools.cache
def blas_thread_pin():
    """openblas_set_num_threads_local(n) of the OpenBLAS that numpy ships
    in numpy.libs: it sets the BLAS thread count of the calling thread
    only.  None where no such library or call is found (numpy built on
    another BLAS, or an OpenBLAS older than 0.3.27)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            pin = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        pin.argtypes, pin.restype = [ctypes.c_int], ctypes.c_int
        return pin
    return None


def scipy_fft():
    """scipy.fft, imported on the first call, as fftn and ifftn import it."""
    import scipy.fft

    return scipy.fft


def fftn(a):
    import scipy.fft

    return scipy.fft.fftn(a, workers=get_workers())


def ifftn(a):
    """The inverse transform of complex a, written over a."""
    import scipy.fft

    return scipy.fft.ifftn(a, workers=get_workers(), overwrite_x=True)


def rfftn(a, axes):
    """Half spectrum of real a over axes: a real transform along the last
    of them, then a complex one along each other, in place."""
    *rest, last = axes
    hat = np.fft.rfft(a, axis=last)
    for ax in rest:
        np.fft.fft(hat, axis=ax, out=hat)
    return hat


def irfftn(a, shape, axes):
    """Inverse of rfftn; shape gives the output sizes along axes.  The
    input spectrum is consumed: the complex inverses overwrite it."""
    *rest, last = axes
    for ax in rest:
        np.fft.ifft(a, axis=ax, out=a)
    return np.fft.irfft(a, n=shape[-1], axis=last)

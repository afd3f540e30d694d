"""The transforms, and which library serves which.

Real transforms (rfftn, irfftn) run on numpy.fft, in place on the half
spectrum.  They serve the factor Poisson solves, the spectral filter and
the derivatives of real data: every transform a flow recipe takes on a
product background, so those recipes never import scipy.

Complex transforms (fftn, ifftn) run on scipy.fft, imported on first use,
on one worker per CPU this process may run on (get_workers).  The workers
split the independent transform lines between them and each line is
computed as on one worker, so the result does not depend on the count
(bit for bit; pinned by the tests).
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
    of them, then a complex one along each other, in place (numpy's own
    rfftn and irfftn make a new array per axis)."""
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

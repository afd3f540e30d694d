"""FFT backend with a worker-count switch.

Deterministic mode (workers=1) is the default and is what the test suite
runs under.  Parallel mode dispatches the same pocketfft kernels over
independent transform lines, so results agree with deterministic mode to
rounding; no cross-thread reductions occur.

The factor Laplacians do not come here: they are matrix products
(grid_field.factor_laplacian) run by numpy's BLAS, whose thread count this
switch does not set and whose result does not depend on it.  The transforms
here serve the general derivatives, the identity spectra, the monitors'
spectrum of u, the factor Poisson solves and the spectral filter.
"""

import scipy.fft as _sfft

_workers = 1


def set_workers(n: int) -> None:
    global _workers
    _workers = max(1, int(n))


def get_workers() -> int:
    return _workers


def fftn(a):
    return _sfft.fftn(a, workers=_workers)


def ifftn(a):
    return _sfft.ifftn(a, workers=_workers)


def rfftn(a, axes):
    return _sfft.rfftn(a, axes=axes, workers=_workers)


def irfftn(a, shape, axes):
    """Inverse of rfftn; shape gives the output sizes along axes.  The
    input spectrum is consumed: every caller passes a fresh array."""
    return _sfft.irfftn(a, s=shape, axes=axes, overwrite_x=True,
                        workers=_workers)

"""Run-time width of NumPy's OpenBLAS thread pool.

``OPENBLAS_NUM_THREADS`` is read once, when the library loads; after that
only the library's own calls change how many threads a BLAS call uses.
This module finds them in the OpenBLAS that NumPy's wheel ships (its
``numpy.libs`` directory), on first use and without importing NumPy.
Without that library (a NumPy built on another BLAS) every call here is a
no-op.

Policy: a CLI command runs inside :func:`command`, on one thread, and only
the blocks that gain from more threads widen the pool to the command's
full width with :func:`full_pool`.  Outside a command the width is left
as found.  The width is one setting for the whole process, so commands
must not run concurrently from several Python threads.
"""

import contextlib
import contextvars
import ctypes
import functools
import glob
import importlib.util
import os

# (get, set) symbol pairs: the scipy-openblas build NumPy wheels ship (ILP64
# symbols with a suffix), then a plain OpenBLAS.
_SYMBOLS = (("scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))

# The running command's full width; None outside a command.
_full_width = contextvars.ContextVar("qprep_blas_full_width", default=None)


@functools.cache
def _openblas():
    """``(get, set)`` thread-count functions of NumPy's OpenBLAS, or None."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    libdir = os.path.join(spec.submodule_search_locations[0], os.pardir,
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name,
                                                             None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def width():
    """The pool's current width, or None without OpenBLAS."""
    calls = _openblas()
    return None if calls is None else calls[0]()


@contextlib.contextmanager
def limit(n):
    """Run the block with the pool at ``n`` threads, then restore the width
    found; ``n`` None leaves it as it is."""
    calls = None if n is None else _openblas()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)


@contextlib.contextmanager
def command(threads):
    """Run one command on one thread.  Inside it :func:`full_pool` widens
    the pool to ``threads``, or to the width found on entry if None."""
    token = _full_width.set(threads or width())
    try:
        with limit(1):
            yield
    finally:
        _full_width.reset(token)


def full_pool():
    """Context manager: the running command's full width for the block;
    outside a command, the width as found."""
    return limit(_full_width.get())

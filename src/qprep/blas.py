"""Run-time width of NumPy's OpenBLAS thread pool, and parking its workers.

``OPENBLAS_NUM_THREADS`` is read once, when the library loads; after that
only the library's own calls change how many threads a BLAS call uses.
This module finds them in the OpenBLAS that NumPy's wheel ships (its
``numpy.libs`` directory), on first use and without importing NumPy.
Without that library (a NumPy built on another BLAS) every call here is a
no-op.

OpenBLAS starts its workers when it loads and after every threaded call
or width change, and an idle worker spins for about 0.1 s before it
sleeps.  :func:`park` shuts them down with ``blas_thread_shutdown_`` (the
call OpenBLAS's own fork handler makes); the next threaded call starts
them again at the width then set.  Without that symbol it is a no-op.

Policy: a CLI command runs inside :func:`command`, on one thread, and only
the blocks that gain from more threads widen the pool to the command's
full width with :func:`full_pool`, which parks the workers when it ends.
A job that can run beside the caller's work uses that width another way:
:func:`beside` runs it on a helper thread at a full width of 2 or more,
and never widens the pool, so the job and the caller each run on one BLAS
thread.  Its callers are the odd block of a spin-flip eigensolve, beside
the even block, and a ``--ham`` archive's CRC-32s, beside the load's
checks, the ``--state`` read and the measure (that job runs ``zlib`` only
and makes no BLAS call).
``cli.main`` parks the workers once before its command, so a cold process
does not pay for the spin the library's load starts.  Once a process has
parked, every width change made here is followed by another park, since
setting a width restarts the workers; a process that never widened never
parks.  Outside a command the width is left as found.  The width and the
workers belong to the whole process, so commands must not run
concurrently from several Python threads, and no other thread may make
BLAS calls while a command runs, but for the helper of :func:`beside`,
which the command waits for before it goes on.
"""

import contextlib
import contextvars
import ctypes
import functools
import glob
import importlib.util
import os
import threading

# (get, set) symbol pairs: the scipy-openblas build NumPy wheels ship (ILP64
# symbols with a suffix), then a plain OpenBLAS.
_SYMBOLS = (("scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))
_SHUTDOWN = "blas_thread_shutdown_"

# The running command's full width; None outside a command.
_full_width = contextvars.ContextVar("qprep_blas_full_width", default=None)
# Whether this process has parked the workers.
_parked = False


@functools.cache
def _openblas():
    """``(get, set, shutdown)`` calls of NumPy's OpenBLAS, ``shutdown``
    None if the library lacks it, or None without the library."""
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
                shutdown = getattr(lib, _SHUTDOWN, None)
                if shutdown is not None:
                    shutdown.restype, shutdown.argtypes = ctypes.c_int, []
                return get, put, shutdown
    return None


def width():
    """The pool's current width, or None without OpenBLAS."""
    calls = _openblas()
    return None if calls is None else calls[0]()


def park():
    """Shut the idle workers down, so that none spins; OpenBLAS starts them
    again, at the width then set, on its next threaded call."""
    global _parked
    calls = _openblas()
    if calls is not None and calls[2] is not None:
        calls[2]()
        _parked = True


def _set_width(put, n):
    put(n)
    if _parked:
        park()


@contextlib.contextmanager
def limit(n):
    """Run the block with the pool at ``n`` threads, then restore the width
    found; ``n`` None leaves it as it is."""
    calls = None if n is None else _openblas()
    if calls is None:
        yield
        return
    get, put, _ = calls
    before = get()
    _set_width(put, n)
    try:
        yield
    finally:
        _set_width(put, before)


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def command(threads):
    """Run one command on one thread.  Its full width, which
    :func:`full_pool` widens the pool to, is ``threads`` capped at the CPUs
    the process may run on, or the width found on entry if None."""
    token = _full_width.set(min(threads, _cpus()) if threads else width())
    try:
        with limit(1):
            yield
    finally:
        _full_width.reset(token)


def full_width():
    """The running command's full width, or None outside a command."""
    return _full_width.get()


@contextlib.contextmanager
def full_pool():
    """The running command's full width for the block, then one thread
    again with the workers parked; outside a command, the width as
    found."""
    full = _full_width.get()
    try:
        with limit(full):
            yield
    finally:
        if full is not None:
            park()


def beside(job):
    """Start ``job()`` and return the call that waits for it, then returns
    its value or raises its exception.

    Inside a command whose full width is 2 or more the job runs on a helper
    thread, started here, and the caller must call the returned wait before
    it goes on, also when it raises itself, so that no helper outlives the
    command.  Inside any other command, and outside one, the job runs here,
    before this returns, and its exception is raised here.
    """
    full = full_width()
    if full is None or full < 2:
        value = job()
        return lambda: value
    done = {}

    def helper():
        try:
            done["value"] = job()
        except BaseException as exc:   # raised by the waiting caller
            done["error"] = exc

    thread = threading.Thread(target=helper, name="qprep-beside")
    thread.start()

    def wait():
        thread.join()
        if "error" in done:
            raise done["error"]
        return done["value"]

    return wait

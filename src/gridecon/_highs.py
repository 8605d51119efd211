"""scipy's bundled HiGHS binding, loaded without importing ``scipy.optimize``.

Dispatch uses one extension of scipy, ``scipy.optimize._highspy._core``
(Huangfu & Hall, *Math. Prog. Comp.* 10, 2018). Importing it by name runs
``scipy/optimize/__init__.py`` first, since Python imports every parent
package, and that pulls in linalg, sparse, special and more: about 0.7 s of
a cold ``simulate``, where the extension alone loads in about 10 ms. So this
module finds the extension file in scipy's ``optimize/_highspy`` directory
and loads it under its full dotted name. It is registered in ``sys.modules``
before it runs, so a later ``import scipy.optimize`` reuses this module
object instead of loading a second copy; one already registered there is
reused the same way.

The load runs once, when this module is first imported, and Python's import
lock makes any other thread importing it meanwhile wait for that load.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy  # the light package; its init also sets up extension loading on some platforms

_NAME = "scipy.optimize._highspy._core"


def _load():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    directory = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_NAME, [directory])
    if spec is None:
        raise ImportError(f"scipy's HiGHS extension _core not found in {directory}", name=_NAME)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        # As the import system does: no half-initialized module stays behind.
        sys.modules.pop(_NAME, None)
        raise
    return module


core = _load()

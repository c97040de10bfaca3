"""Spark's Python worker daemon, with Spark's own archives off ``sys.path``.

Spark starts its Python workers with ``$SPARK_HOME/python/lib/pyspark.zip``,
the py4j zip and the spark-core jar on ``PYTHONPATH``. Every task calls
``importlib.invalidate_caches()`` (pyspark ``worker_util.setup_spark_files``),
and on CPython 3.11 that makes each ``zipimporter`` re-read its archive's
whole directory: about 230 ms per task for these archives. Where py4j and
a pyspark with the same ``version.py`` can be imported from the rest of the
path (a pip install beside the Spark distribution), this daemon drops the
archives, and their cached importers, before it runs pyspark's own daemon.
The workers it forks then import pyspark from there, and the call costs
under 1 ms. Otherwise ``sys.path`` stays as Spark set it.

``repro.sparkutil.get_spark`` selects this module through
``spark.python.daemon.module``, so the workers must be able to import
``repro`` (an installed package or ``PYTHONPATH=src``).
"""
from __future__ import annotations

import os
import sys
import zipfile


def _package(name: str, path: list[str]) -> str | None:
    """Directory of package ``name`` in the first ``path`` entry holding it."""
    for entry in path:
        if os.path.isfile(os.path.join(entry, name, "__init__.py")):
            return os.path.join(entry, name)
    return None


def spark_free_path(path: list[str], spark_home: str | None) -> list[str]:
    """``path`` without the files under ``spark_home``, or ``path`` itself
    unless the rest of it holds py4j and a pyspark whose ``version.py``
    equals the one in the ``pyspark.zip`` among those files."""
    if not spark_home:
        return path
    home = os.path.join(os.path.realpath(spark_home), "")
    archives = [
        p for p in path if os.path.isfile(p) and os.path.realpath(p).startswith(home)
    ]
    rest = [p for p in path if p not in archives]
    bundled = [p for p in archives if os.path.basename(p) == "pyspark.zip"]
    pyspark = _package("pyspark", rest)
    if not bundled or pyspark is None or _package("py4j", rest) is None:
        return path
    try:
        with zipfile.ZipFile(bundled[0]) as zf, open(
            os.path.join(pyspark, "version.py"), "rb"
        ) as fh:
            same = zf.read("pyspark/version.py") == fh.read()
    except (OSError, KeyError, zipfile.BadZipFile):
        return path
    return rest if same else path


def drop_spark_archives(spark_home: str | None) -> None:
    """Apply ``spark_free_path`` to ``sys.path`` and forget the importers
    that finding this module already cached for the dropped entries."""
    kept = spark_free_path(sys.path, spark_home)
    dropped = [os.path.join(p, "") for p in sys.path if p not in kept]
    for key in list(sys.path_importer_cache):
        if os.path.join(key, "").startswith(tuple(dropped)):
            del sys.path_importer_cache[key]
    sys.path[:] = kept


if __name__ == "__main__":
    drop_spark_archives(os.environ.get("SPARK_HOME"))
    from pyspark import daemon

    daemon.manager()

"""repro.sparkdaemon: which ``sys.path`` entries the worker daemon drops,
and what a Spark task then sees."""
from __future__ import annotations

import glob
import os
import sys
import zipfile

import pandas as pd
import pytest

from repro.sparkdaemon import drop_spark_archives, spark_free_path


def _zip(path, files: dict[str, str]) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with zipfile.ZipFile(path, "w") as zf:
        for name, text in files.items():
            zf.writestr(name, text)
    return path


def _package(root, name: str, files: dict[str, str]) -> None:
    os.makedirs(root / name)
    (root / name / "__init__.py").write_text("")
    for fname, text in files.items():
        (root / name / fname).write_text(text)


@pytest.fixture
def layout(tmp_path):
    """A Spark distribution reached through a symlink, as ``/opt/spark`` is,
    a pip install of the same pyspark, a source dir and a userFiles dir.
    Like Spark, the zips are named through the link, the jar by its
    real path. Returns (spark_home, site-packages, the full path, the path
    without Spark's archives)."""
    real = tmp_path / "spark-4.1.2-bin"
    home = tmp_path / "spark"
    os.makedirs(real)
    os.symlink(real, home)
    version = "__version__: str = '4.1.2'\n"
    zips = [
        _zip(str(home / "python/lib/pyspark.zip"), {"pyspark/version.py": version}),
        _zip(str(home / "python/lib/py4j-0.10.9.9-src.zip"), {"py4j/__init__.py": ""}),
        _zip(str(real / "jars/spark-core_2.13-4.1.2.jar"), {"org/x.class": ""}),
    ]
    site = tmp_path / "site-packages"
    _package(site, "pyspark", {"version.py": version})
    _package(site, "py4j", {})
    src, user_files = tmp_path / "src", tmp_path / "userFiles-1"
    os.makedirs(src)
    os.makedirs(user_files)
    kept = [str(user_files), str(src), str(home / "python"), str(site)]
    path = kept[:1] + zips + kept[1:]
    return str(home), site, path, kept


def test_drops_only_files_under_spark_home(layout):
    home, _, path, kept = layout
    assert spark_free_path(path, home) == kept


@pytest.mark.parametrize("spark_home", [None, ""])
def test_unchanged_without_spark_home(layout, spark_home):
    _, _, path, _ = layout
    assert spark_free_path(path, spark_home) == path


@pytest.mark.parametrize("package", ["pyspark", "py4j"])
def test_unchanged_when_package_only_in_archives(layout, package):
    home, site, path, _ = layout
    os.rename(site / package, site / f"{package}-moved")
    assert spark_free_path(path, home) == path


def test_unchanged_when_versions_differ(layout):
    home, site, path, _ = layout
    (site / "pyspark" / "version.py").write_text("__version__: str = '4.0.0'\n")
    assert spark_free_path(path, home) == path


def test_drop_forgets_cached_importers(layout, monkeypatch):
    """The daemon's own import of ``repro`` already cached an importer for
    every archive; left in the cache, each is re-read on every task."""
    home, _, path, kept = layout
    zip_root = path[1]
    cache = {p: object() for p in path}
    cache[os.path.join(zip_root, "pyspark")] = object()
    monkeypatch.setattr(sys, "path", list(path))
    monkeypatch.setattr(sys, "path_importer_cache", dict(cache))
    drop_spark_archives(home)
    assert sys.path == kept
    assert set(sys.path_importer_cache) == set(kept)


def test_task_imports_pyspark_outside_spark_home(spark):
    """Inside a Python task pyspark comes from outside ``$SPARK_HOME`` and
    no ``zipimporter`` is left to re-read its archive on every task."""
    home = os.environ.get("SPARK_HOME")
    archives = glob.glob(os.path.join(home or ".", "python", "lib", "*.zip"))
    if not home or spark_free_path(archives + sys.path, home) == archives + sys.path:
        pytest.skip(
            "the daemon keeps Spark's archives here: SPARK_HOME is unset, or "
            "pyspark.zip's version is not importable outside $SPARK_HOME"
        )

    def report(batches):
        import pyspark

        for _ in batches:
            pass
        zipimporters = [
            key for key, finder in sys.path_importer_cache.items()
            if type(finder).__name__ == "zipimporter"
        ]
        yield pd.DataFrame(
            {"pyspark": [pyspark.__file__], "zipimporters": [len(zipimporters)]}
        )

    row = spark.range(1, numPartitions=1).mapInPandas(
        report, "pyspark string, zipimporters long"
    ).first()
    real_home = os.path.join(os.path.realpath(home), "")
    assert not os.path.realpath(row.pyspark).startswith(real_home)
    assert row.zipimporters == 0

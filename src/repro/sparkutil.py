"""The one SparkSession definition: jobs, tests and the benchmark use it.

Python workers are forked by ``repro.sparkdaemon``, which keeps Spark's
own archives off their ``sys.path`` (see that module).
"""
from __future__ import annotations

import os


def get_spark(app_name: str = "repro"):
    """Create (or reuse) the local SparkSession."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '16g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.python.daemon.module", "repro.sparkdaemon")
        .getOrCreate()
    )


def default_run_dir() -> str:
    """Where jobs read/write graphs + sweep results."""
    return os.environ.get("REPRO_RUN_DIR", os.path.join(os.getcwd(), "runs", "full"))

"""Spark session, engine counters and process memory for one benchmark run.

The session is the repo's own ``repro.sparkutil.get_spark`` with the
benchmark's fixed deployment settings: ``local[4]`` (one driver process,
the 4 cores of the reference machine), a 1 GiB driver heap and the serial
garbage collector. Both keep the JVM's peak resident set from following
the collector's timing-dependent sizing choices: with G1 it spread about
0.12 (interquartile range / median) across build seeds, with the serial
collector about 0.04. Spark's
scratch space, the JVM temp dir and Python's temp dir all live under the
run directory inside the checkout.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

CORES = 4
MASTER = f"local[{CORES}]"
DRIVER_MEM = "1g"


def configure(src_dir: str, run_dir: str) -> None:
    """Environment for the driver, the Spark JVM and its Python workers.

    Must run before the first SparkSession is created: the JVM reads its
    launch arguments and temp dirs only once.
    """
    spark_dir = os.path.join(run_dir, "spark")
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(spark_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src_dir + (os.pathsep + inherited if inherited else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_MASTER"] = MASTER
    os.environ["SPARK_DRIVER_MEM"] = DRIVER_MEM
    os.environ["SPARK_LOCAL_DIRS"] = spark_dir
    os.environ["TMPDIR"] = tmp_dir
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={tmp_dir} -XX:-UsePerfData -XX:+UseSerialGC"
    )
    # let get_spark build the launch arguments and pick its own defaults
    for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_SHUFFLE_PARTITIONS"):
        os.environ.pop(var, None)


def start_session():
    """(session, seconds until it has run a first job)."""
    from repro.sparkutil import get_spark

    t0 = time.perf_counter()
    spark = get_spark("perfbench")
    spark.range(1).count()
    elapsed = time.perf_counter() - t0
    spark.sparkContext.setLogLevel("ERROR")
    return spark, elapsed


def jvm_pid(spark) -> int:
    return int(spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid())


def stop_session(spark, timeout: float = 60.0) -> None:
    """Stop Spark and wait until the JVM process has exited."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class EngineCounters:
    """Jobs, stages and tasks Spark ran under one job group.

    Use as a context manager around each counted operation: entering
    sets the job group, leaving polls ``statusTracker`` (which keeps only
    the most recent jobs and stages) and clears the group. Counts
    accumulate by job and stage id.
    """

    def __init__(self, spark, group: str):
        self._sc = spark.sparkContext
        self.group = group
        self._jobs: set[int] = set()
        self._stages: dict[int, tuple[int, int]] = {}

    def __enter__(self):
        self._sc.setJobGroup(self.group, self.group)
        return self

    def __exit__(self, *exc):
        self._poll()
        self._sc.setLocalProperty("spark.jobGroup.id", None)
        return False

    def _poll(self) -> None:
        tracker = self._sc.statusTracker()
        for jid in tracker.getJobIdsForGroup(self.group):
            if jid in self._jobs:
                continue
            info = tracker.getJobInfo(jid)
            if info is None:
                continue
            self._jobs.add(jid)
            for sid in info.stageIds:
                stage = tracker.getStageInfo(sid)
                if stage is not None and stage.numCompletedTasks > 0:
                    self._stages[sid] = (
                        stage.numCompletedTasks, stage.numFailedTasks
                    )

    def totals(self) -> dict[str, int]:
        return {
            "spark.jobs": len(self._jobs),
            "spark.stages": len(self._stages),
            "spark.tasks": sum(done for done, _ in self._stages.values()),
            "spark.tasks_failed": sum(bad for _, bad in self._stages.values()),
        }

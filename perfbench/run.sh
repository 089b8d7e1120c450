#!/usr/bin/env bash
# Runs one benchmark run of the Sparcle program.
#
#   bash perfbench/run.sh --workload <nyc_table4|austin_table6> --seed <n> \
#                         --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --workload <name> --check-table4
#   bash perfbench/run.sh --compare <base reports dir> <new reports dir>
#
# Run from the root of a checkout. The first run builds the program and the
# harness from source with sbt (offline) and keeps the classpath under
# perfbench/target/bench; later runs rebuild only when a source file
# changed. Run outputs (report, spans) go to perfbench/out. Everything the
# run writes stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

for f in build.sbt project/build.properties src/main/scala/repro/core/Sparcle.scala jobs/Jobs.scala; do
  if [ ! -f "$f" ]; then
    echo "perfbench: $f is missing; run from the root of a repository checkout" >&2
    exit 2
  fi
done

export COURSIER_MODE="${COURSIER_MODE:-offline}"
if [ -z "${SBT_OPTS:-}" ] && [ -f "$HOME/.sbt/repositories" ]; then
  export SBT_OPTS="-Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx4g"
fi

build="$here/target/bench"
mkdir -p "$build"
sources_sha1() {
  find build.sbt project/build.properties src/main jobs \
       perfbench/build.sbt perfbench/project/build.properties perfbench/src/main -type f \
    | LC_ALL=C sort | xargs sha1sum | sha1sum | cut -c1-40
}
sha="$(sources_sha1)"
if [ ! -s "$build/classpath" ] || [ "$(cat "$build/sha1" 2>/dev/null)" != "$sha" ]; then
  rm -f "$build/classpath" "$build/sha1"
  if ! (cd "$here" && sbt --batch -Dsbt.log.noformat=true -Dsbt.server.autostart=false \
          "export Runtime/fullClasspath") > "$build/sbt.log" 2>&1; then
    tail -40 "$build/sbt.log" >&2
    echo "perfbench: build failed" >&2
    exit 3
  fi
  tail -1 "$build/sbt.log" > "$build/classpath"
  if ! grep -q "perfbench/target" "$build/classpath"; then
    echo "perfbench: no classpath in the build output" >&2
    exit 3
  fi
  echo "$sha" > "$build/sha1"
fi

# Fresh scratch space for Spark inside the checkout.
work="$here/target/run"
rm -rf "$work"
mkdir -p "$work/spark-local" "$work/tmp"

# Pinned Spark settings (recorded in every report): the program's own
# session (local[*]), 8 shuffle partitions, a fixed 3 GB driver heap.
unset SPARK_MASTER
export SPARK_SHUFFLE_PARTITIONS=8
export SPARK_LOCAL_DIRS="$work/spark-local"
export PERFBENCH_SOURCE_SHA1="$sha"
PERFBENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo none)"
export PERFBENCH_GIT_SHA

exec java -Xms3g -Xmx3g -Djava.io.tmpdir="$work/tmp" \
  -Dspark.driver.host=127.0.0.1 -Dspark.driver.bindAddress=127.0.0.1 \
  -cp "$(cat "$build/classpath")" repro.perfbench.Main "$@"

#!/usr/bin/env bash
# Regenerates the golden outputs from a build tree into a directory, under
# the file names scripts/golden_digests.sha256 pins: example stdout, trace
# exports, HealthEvent streams and chaos JSON. Every one is a deterministic
# function of its seed, so a digest moves only when behaviour does.
#
# Usage: scripts/golden_outputs.sh <build-dir> <out-dir>
#   check:  (cd <out-dir> && sha256sum -c <repo>/scripts/golden_digests.sha256)
#   re-pin: (cd <out-dir> && sha256sum * > <repo>/scripts/golden_digests.sha256)
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
bin="$(cd "$1" && pwd)/examples"
mkdir -p "$2"
cd "$2"  # relative output paths keep the printed file names stable

"${bin}/quickstart" > quickstart.txt
"${bin}/kv_cluster" > kv_cluster.txt
"${bin}/kv_cluster" --shards 4 > kv_cluster_shards4.txt
"${bin}/mission_modes" > mission_modes.txt
"${bin}/sensor_network" > sensor_network.txt
"${bin}/capacity_planner" > capacity_planner.txt
"${bin}/trace_explorer" seed=42 out=trace.json txt=trace.txt > trace_explorer.txt
"${bin}/trace_explorer" shards=4 seed=42 out=trace_shards4.json \
  > trace_explorer_shards4.txt
"${bin}/health_dashboard" > health_dashboard.txt
"${bin}/health_dashboard" chaos=1 seed=42 events=health_events_chaos.txt \
  > health_dashboard_chaos.txt
"${bin}/chaos_runner" trials=200 seed=1 out=chaos.json > chaos_runner.txt

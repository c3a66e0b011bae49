#!/bin/sh
# Runs the command-line interface on the bundled fixture with every
# RuntimeWarning made an error: a divide by zero or an invalid value inside a
# run is a numerical fault even when the run exits 0.  Exits 1 at the first
# run that fails.  Run it from the root of a source checkout:
#
#     sh scripts/fixture_runs.sh
fixture=tests/data/fixture
cli() { PYTHONPATH=src python -W error::RuntimeWarning -m graphgp.cli "$@" > /dev/null || exit 1; }
cli infer --dataset $fixture
for arch in gcnii gin sage mlp rbf ggp; do cli infer --dataset $fixture --arch $arch; done
# every layered architecture runs through the pivoted Nystrom factor
for arch in gcn gcnii gin sage mlp; do cli infer --dataset $fixture --arch $arch --path lowrank; done
# ggp's one GraphConv on the factor
cli infer --dataset $fixture --arch ggp --path lowrank
# a dense layer with a non-unit weight and a bias
for arch in gcn gin mlp; do
  for path in exact lowrank; do
    cli infer --dataset $fixture --arch $arch --path $path --sigma-w 1.5 --sigma-b 0.3
  done
done
# sage with a self branch, on both paths
for path in exact lowrank; do cli infer --dataset $fixture --arch sage --path $path --sigma-w1 0.5; done
# a fixed nugget is a one-point search, alone and inside rbf's gamma search
for path in exact lowrank; do cli infer --dataset $fixture --path $path --nugget 0.1; done
cli infer --dataset $fixture --arch rbf --nugget 0.1
# feature preprocessing and the base kernels, on both paths
for path in exact lowrank; do
  cli infer --dataset $fixture --path $path --pca 1
  cli infer --dataset $fixture --path $path --center
  cli infer --dataset $fixture --path $path --base rbf
  cli infer --dataset $fixture --path $path --base poly
done
# a config file: its [infer] section, and a [DEFAULT] key that only mc-verify
# takes; the flag parsers come from RunConfig's annotations
ini=$(mktemp) || exit 1
trap 'rm -f "$ini"' EXIT
printf '[DEFAULT]\nwidth = 64\n[infer]\narch = sage\nlayers = 3\nsigma-w = 1.5\ncenter = true\nnugget-grid = 0.01,1,5\n' > "$ini"
cli infer --dataset $fixture --config "$ini"
cli depth-scan --dataset $fixture --arch gcn --layers 4 --nugget 0.1
for arch in gcn gcnii mlp; do cli depth-scan --dataset $fixture --arch $arch --layers 20; done
# the sampler draws every layered network, each with a ReLU between two maps
for arch in gcn gcnii gin sage mlp; do
  cli mc-verify --dataset $fixture --arch $arch --layers 3 --width 64 --samples 5
done
# a biased dense layer in every drawn layer: the fixture is a classification
# set, so sigma_b defaults to 0 and the draw's bias would not run otherwise
for arch in gcn gin mlp; do
  cli mc-verify --dataset $fixture --arch $arch --layers 3 --width 64 --samples 5 --sigma-b 0.3
done

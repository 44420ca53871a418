.PHONY: all build test verify lint sanitize equiv bench bench-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# static-verifier sweep: every workload kernel at every compiler stage,
# plus the seeded known-bad corpus; fails on any error-severity diagnostic
verify:
	dune exec bin/crat_cli.exe -- verify --all --corpus

# static performance advisor over every workload, with each "may"/"must"
# claim cross-checked against dynamic counters from a run on the fast
# interpreter (Gpusim.Profile); the P-code report lands in lint-report.txt
lint:
	dune exec bin/crat_cli.exe -- lint --all --validate --out lint-report.txt

# hybrid memory-safety sweep: every workload at pre-opt/post-opt/post-alloc,
# then a sanitized replay of each default launch (static proofs discharge the
# dynamic checks; only the residue pays a bounds test); the S-code +
# discharge-table report lands in sanitize-report.txt
sanitize:
	dune exec bin/crat_cli.exe -- sanitize --all --validate --out sanitize-report.txt

# translation-validation sweep: symbolically prove every workload's three
# transformation edges (optimization, allocation, machine lowering), plus
# the seeded miscompile corpus, each refutation replayed on the reference
# interpreter; the E-code report lands in equiv-report.txt
equiv:
	dune exec bin/crat_cli.exe -- equiv --all --corpus --out equiv-report.txt

bench:
	dune exec bench/main.exe

# cheap smoke check of the parallel evaluation path: a per-app table
# (fig1), a design-space table (fig11) and fig13's shared comparisons
# built on demand for fig14
bench-smoke:
	dune exec bench/main.exe -- --only fig1,fig11,fig14 --jobs 2 --fast

clean:
	dune clean

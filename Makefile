# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race cover bench bench-ci bench-smoke fuzz examples figures figures-paper ci fmt-check lint docs-check e2ebench

all: build test

# ci mirrors .github/workflows/ci.yml exactly (plus the gofmt gate), so a
# local `make ci` reproduces what the pipeline enforces.
ci: fmt-check lint docs-check build test bench-ci e2ebench race

# lint runs the repo's own invariant analyzers (cmd/bayeslint): the
# determinism, single-writer, error-handling, goroutine-hygiene,
# float-comparison, doc-comment, hot-path-allocation, lock-discipline,
# lock-copy, and ledger-conservation contracts from DESIGN.md "Enforced
# invariants".
lint:
	go run ./cmd/bayeslint ./...

# docs-check keeps the prose honest: README layout table vs. the
# filesystem, markdown links resolve, ```go snippets are gofmt-clean.
docs-check:
	go test ./internal/docscheck/

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# e2ebench builds and tests the end-to-end benchmark module, which
# imports internal packages through a replace directive but sits
# outside ./... — so an internal API change cannot break it unseen.
e2ebench:
	cd e2ebench && go vet . && go test .

race:
	go test -race ./...

cover:
	go test -cover ./...

bench:
	go test -bench=. -benchmem ./...

# bench-ci is ci.yml's one-iteration pass over the stream crowd-tick,
# uncached Pr(phi) fan-out, approximate-estimator, model query-cycle,
# warm-query, preprocessing, network-learning, hub-cycle and c-table
# build benchmarks: same regex, same packages.
bench-ci:
	go test -run '^$$' -bench 'CrowdTick|ProbAll|ApproxEstimators|ModelQueryCycle|WarmQuery|Preprocess|LearnNetwork|HubCycle|BuildFast' -benchtime 1x ./internal/stream/ ./internal/prob/ ./internal/core/ ./internal/service/ ./internal/ctable/

# bench-smoke is the nightly workflow's one-iteration pass: benchmarks
# must at least compile and run on every PR.
bench-smoke:
	go test -bench=. -benchtime=1x ./...

fuzz:
	go test -fuzz FuzzReadCSV -fuzztime 30s ./internal/dataset/
	go test -fuzz FuzzReadJSON -fuzztime 30s ./internal/bayesnet/
	go test -fuzz FuzzRequestBodies -fuzztime 30s ./internal/service/

examples:
	go run ./examples/quickstart
	go run ./examples/movies
	go run ./examples/nba
	go run ./examples/sensors
	go run ./examples/pipeline

figures:
	go run ./cmd/benchfig -all

figures-paper:
	go run ./cmd/benchfig -all -scale paper

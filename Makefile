# Development entry points. Everything is stdlib-only Go; no external
# tools are required beyond the toolchain.

GO ?= go

.PHONY: all build test race bench vet fmt lint lint-test experiments quick clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Package micro-benchmarks. The performance ledger is `go run ./bench`
# (see bench/README.md).
bench:
	$(GO) test -bench . -benchmem ./...

vet:
	$(GO) vet ./...

# Domain-specific static analysis (tools/drtplint, its own stdlib-only
# module): determinism of the simulation core and lock discipline
# (guarded-by fields, lock order). Runs over every package of the main
# module; exits non-zero on findings.
DRTPLINT := bin/drtplint
DRTPLINT_SRC := $(shell find tools/drtplint -name '*.go' -not -path '*/testdata/*')

$(DRTPLINT): $(DRTPLINT_SRC) tools/drtplint/go.mod
	$(GO) -C tools/drtplint build -o $(CURDIR)/$(DRTPLINT) .

lint: $(DRTPLINT)
	./$(DRTPLINT)

# The analyzers' own fixture tests.
lint-test:
	$(GO) -C tools/drtplint test ./...

fmt:
	gofmt -w .

# Full-scale reproduction of every table and figure (several minutes).
experiments:
	$(GO) run ./cmd/drtpsim -exp all -degree 3
	$(GO) run ./cmd/drtpsim -exp all -degree 4

# Scaled-down smoke run of the whole evaluation (~1 minute).
quick:
	$(GO) run ./cmd/drtpsim -exp all -quick

clean:
	$(GO) clean ./...

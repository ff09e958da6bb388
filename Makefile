# Convenience targets; everything is plain `go` underneath (stdlib only).
# No target chooses tests by name: `test` and `test-race` run every test.

GO ?= go

.PHONY: all build vet test test-race fuzz-short bench examples clean

all: build vet test test-race fuzz-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

# Every test again under the race detector, without -short. The simulation
# is single-goroutine by design, so this guards the sharded engine's workers,
# the test harness and any future concurrency. The allocation-budget tests
# skip themselves in a -race build (the detector allocates for itself);
# `test` runs them.
test-race:
	$(GO) test -race ./...

# Ten seconds on every fuzz target under internal/ — the three line
# languages (netconf configs, chaos scripts, intent specs), the checkpoint
# container and section payloads, the forwarding table and the event queue
# against their models, the packet decoders. The list comes from
# `go test -list`, so a new target cannot be left out.
fuzz-short:
	@list=$$($(GO) test -list '^Fuzz' ./internal/...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { n[++k] = $$1; next } /^ok/ { for (i = 1; i <= k; i++) print $$2, n[i]; k = 0 }' | \
		while read -r pkg target; do \
			echo "fuzz-short: $$target ($$pkg)"; \
			$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=10s $$pkg || exit 1; \
		done

# Every benchmark and no test.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Every program under examples/, in directory order.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

clean:
	$(GO) clean ./...

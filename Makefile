# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test lint fmt rules

build:
	go build ./...

test:
	go test ./...

# Determinism lint: gofmt diff check, standard vet, then the six wfvet
# rules over the module. wfvet exits 2 on findings, 1 on usage errors.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go run ./cmd/wfvet ./...

fmt:
	gofmt -w .

rules:
	go run ./cmd/wfvet -catalog

// The benchmark is a module of its own so the repository's
// `go build ./... && go test ./...` never compiles it. Its import path
// keeps the minsim/ prefix, which is what lets it import the
// minsim/internal/... packages it measures.
module minsim/bench

go 1.24

require minsim v0.0.0

replace minsim => ../

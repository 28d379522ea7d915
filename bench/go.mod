// The benchmark is a module of its own because the contract it is written
// to wants a compiled benchmark to have its own build file; the
// import-path prefix "gospaces/" is what lets it reach
// gospaces/internal/... through the replace below.
module gospaces/bench

go 1.22

require gospaces v0.0.0

replace gospaces => ../

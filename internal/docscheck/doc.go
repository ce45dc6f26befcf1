// Package docscheck gates the repository's documentation in CI. Its
// tests (run by `make docs-check` and the CI docs job) keep the prose
// honest against the code:
//
//   - the README "Repository layout" table names exactly the packages
//     that exist under internal/ and cmd/ — a new package without a
//     table row, or a row for a deleted package, fails;
//   - every relative markdown link in README.md, DESIGN.md,
//     EXPERIMENTS.md, and docs/ resolves to an existing file (external
//     URLs, pure fragments, and repo-escaping badge paths are skipped);
//   - every ```go fenced snippet in those files is gofmt-clean, checked
//     by re-formatting the snippet as a file, a package-prefixed file,
//     or a function-wrapped fragment (snippets that parse under none of
//     those — e.g. mixed import-and-statement elisions — are skipped);
//   - the Makefile's bench-ci target and the CI workflow's
//     one-iteration bench step run the same -bench regex over the same
//     packages.
//
// The package itself carries no runtime code; everything lives in the
// test files so the gate costs nothing at build time.
package docscheck

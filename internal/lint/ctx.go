package lint

import (
	"go/ast"
)

// ctx-threading: library code (everything outside package main and
// _test.go files) must thread the caller's context — constructing
// context.Background()/TODO() severs cancellation from the session
// above. Deliberate roots (a connection's own context, a synchronous
// diagnostic helper) carry //poseidonlint:ignore ctx-threading
// annotations.
var passCtxThreading = &Pass{
	Name:    "ctx-threading",
	Doc:     "library code must not construct context.Background()/TODO()",
	Default: true,
	Run: func(c *Context) {
		if c.Pkg.Name == "main" {
			return
		}
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["ctx-threading"] {
				continue
			}
			forEachCall(fi, func(call *ast.CallExpr) {
				if name, ok := backgroundCtx(c.Kit, fi.Pkg, call); ok {
					c.Reportf(call.Pos(), "context.%s() in library code severs cancellation; thread the caller's ctx (deliberate roots: annotate //poseidonlint:ignore ctx-threading)", name)
				}
			})
		}
	},
}

// backgroundCtx matches context.Background()/context.TODO() via the
// file's import of the "context" package (works with stub imports).
func backgroundCtx(k *Kit, pkg *Package, call *ast.CallExpr) (string, bool) {
	path, name, ok := k.PkgCall(pkg, call)
	if !ok || path != "context" || (name != "Background" && name != "TODO") {
		return "", false
	}
	return name, true
}

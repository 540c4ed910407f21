package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CacheKey enforces the cache-key audit that cache.go's envJobKey
// comment used to delegate to reviewers: every field of a struct marked
// `//mtlint:cachekey <group>` (smtbalance.Options) must
// either flow into a hasher of the same group — it is read inside the
// body of a function marked `//mtlint:cachekey-hasher <group>`, or
// appears as a call argument to such a function — or carry an explicit
// `//mtlint:cachekey-exempt <justification>` directive on the field
// itself.  A behavior-affecting field that is neither hashed nor
// exempted is exactly the silent cache-collision bug the canonical key
// exists to prevent.
var CacheKey = &Analyzer{
	Name: "cachekey",
	Doc: "every field of a //mtlint:cachekey struct must be read by a " +
		"//mtlint:cachekey-hasher function (directly or as a call argument) " +
		"or carry a //mtlint:cachekey-exempt justification",
	Run: runCacheKey,
}

// cacheKeyGroup accumulates one group's marked declarations.
type cacheKeyGroup struct {
	structPos  token.Pos     // the marked struct, NoPos until seen
	structName string        // its declared name
	fields     []*types.Var  // the struct's fields, declaration order
	fieldDecl  []*ast.Field  // the syntax of each field (for exemptions)
	hashers    []*types.Func // the group's hasher functions
	hasherPos  []token.Pos   // where each hasher directive sits
	hashed     map[*types.Var]bool
}

func runCacheKey(pass *Pass) error {
	groups := make(map[string]*cacheKeyGroup)
	group := func(name string) *cacheKeyGroup {
		g := groups[name]
		if g == nil {
			g = &cacheKeyGroup{hashed: make(map[*types.Var]bool)}
			groups[name] = g
		}
		return g
	}

	// Pass 1: collect marked structs and hashers.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = d.Doc
					}
					name, ok := directive(doc, "cachekey")
					if !ok {
						continue
					}
					if name == "" {
						pass.Reportf(ts.Pos(), "//mtlint:cachekey needs a group name (e.g. //mtlint:cachekey run)")
						continue
					}
					obj := pass.Info.Defs[ts.Name]
					st, ok := obj.Type().Underlying().(*types.Struct)
					if !ok {
						pass.Reportf(ts.Pos(), "//mtlint:cachekey %s on %s, which is not a struct type", name, ts.Name.Name)
						continue
					}
					g := group(name)
					if g.structPos.IsValid() {
						pass.Reportf(ts.Pos(), "duplicate //mtlint:cachekey group %q (already on %s)", name, g.structName)
						continue
					}
					g.structPos = ts.Pos()
					g.structName = ts.Name.Name
					for i := 0; i < st.NumFields(); i++ {
						g.fields = append(g.fields, st.Field(i))
					}
					g.fieldDecl = flattenFields(ts)
				}
			case *ast.FuncDecl:
				name, ok := directive(d.Doc, "cachekey-hasher")
				if !ok {
					continue
				}
				if name == "" {
					pass.Reportf(d.Pos(), "//mtlint:cachekey-hasher needs a group name")
					continue
				}
				fn, _ := pass.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g := group(name)
				g.hashers = append(g.hashers, fn)
				g.hasherPos = append(g.hasherPos, d.Pos())
			}
		}
	}

	// Pass 2: collect field reads inside hasher bodies and field
	// selections among the arguments of calls to hashers.
	hasherOf := make(map[*types.Func]*cacheKeyGroup)
	for _, g := range groups {
		for _, fn := range g.hashers {
			hasherOf[fn] = g
		}
	}
	if len(hasherOf) > 0 {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, _ := pass.Info.Defs[fd.Name].(*types.Func); fn != nil {
					if g := hasherOf[fn]; g != nil {
						// Every field selection inside a hasher body counts
						// as hashed for its group.
						markFieldReads(pass, fd.Body, g)
					}
				}
				// Field selections passed as arguments to a hasher count
				// too: `hasher(m.opts.Topology, ...)` hashes Topology.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeFunc(pass, call)
					if callee == nil {
						return true
					}
					if g := hasherOf[callee]; g != nil {
						for _, arg := range call.Args {
							markFieldReads(pass, arg, g)
						}
					}
					return true
				})
			}
		}
	}

	// Pass 3: verdicts, in declaration order for deterministic output.
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := groups[name]
		if !g.structPos.IsValid() {
			for _, pos := range g.hasherPos {
				pass.Reportf(pos, "//mtlint:cachekey-hasher %s has no //mtlint:cachekey %s struct in this package", name, name)
			}
			continue
		}
		if len(g.hashers) == 0 {
			pass.Reportf(g.structPos, "//mtlint:cachekey %s has no //mtlint:cachekey-hasher %s function in this package", name, name)
			continue
		}
		for i, fv := range g.fields {
			just, exempt := fieldExemption(g.fieldDecl, i)
			if exempt && just == "" {
				pass.Reportf(fv.Pos(), "%s.%s: //mtlint:cachekey-exempt needs a justification", g.structName, fv.Name())
				continue
			}
			if g.hashed[fv] || exempt {
				continue
			}
			pass.Reportf(fv.Pos(), "%s.%s is neither hashed by a %q cache-key hasher nor exempted; "+
				"hash it in a //mtlint:cachekey-hasher %s function or add //mtlint:cachekey-exempt <justification> to the field",
				g.structName, fv.Name(), name, name)
		}
	}

	// Exemption directives on fields of unmarked structs are dead: they
	// claim an audit that never runs.
	marked := make(map[string]bool)
	for _, g := range groups {
		if g.structPos.IsValid() {
			marked[g.structName] = true
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || marked[ts.Name.Name] {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					if _, ok := fieldDirective(fld, "cachekey-exempt"); ok {
						pass.Reportf(fld.Pos(), "//mtlint:cachekey-exempt on a field of %s, which has no //mtlint:cachekey directive", ts.Name.Name)
					}
				}
			}
		}
	}
	return nil
}

// flattenFields returns one *ast.Field per declared field name of the
// struct (a Field with n Names yields n entries), matching the order of
// types.Struct.Field.
func flattenFields(ts *ast.TypeSpec) []*ast.Field {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return nil
	}
	var out []*ast.Field
	for _, f := range st.Fields.List {
		n := len(f.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		for i := 0; i < n; i++ {
			out = append(out, f)
		}
	}
	return out
}

// fieldDirective reads an mtlint directive from a struct field's doc or
// trailing comment.
func fieldDirective(f *ast.Field, verb string) (string, bool) {
	if arg, ok := directive(f.Doc, verb); ok {
		return arg, ok
	}
	return directive(f.Comment, verb)
}

// fieldExemption returns field i's cachekey-exempt justification.
func fieldExemption(decls []*ast.Field, i int) (string, bool) {
	if i >= len(decls) {
		return "", false
	}
	return fieldDirective(decls[i], "cachekey-exempt")
}

// markFieldReads records, for every selector expression under n that
// reads a field of g's marked struct, that the field is hashed.
func markFieldReads(pass *Pass, n ast.Node, g *cacheKeyGroup) {
	want := make(map[*types.Var]bool, len(g.fields))
	for _, fv := range g.fields {
		want[fv] = true
	}
	ast.Inspect(n, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		if fv, ok := s.Obj().(*types.Var); ok && want[fv] {
			g.hashed[fv] = true
		}
		return true
	})
}

// calleeFunc resolves a call expression's static callee, or nil for
// dynamic calls.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

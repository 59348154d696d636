package apknn_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportedSurface fails on every identifier under internal/, exported
// or not, and every unexported identifier of the root package, that no
// non-test file of the module reads: its only references, if any, are in
// _test.go files or its own declaration, or, for a struct field, are
// writes — x.F = v, or the key F: of a struct literal — that no program
// reads back. x.F += v, x.F++ and &x.F are reads. Callers are every
// non-test package of the module, so bench/, cmd/ and examples/ count,
// type-checked twice — in the default build context and with the purego
// tag — so that a name one build's files reach is not reported by the
// other. A method that satisfies an interface counts as used
// (heap.Interface's Pop, wal.FS's Open, fmt.Stringer, the Unwrap that
// errors.Is calls), and so does a field with an xml or json tag other than
// "-", which encoding reads by reflection.
// Encoding reads untagged exported fields too, but the census cannot tell
// which structs reach an encoder: an untagged field of a struct a program
// encodes is reported, so tag every field of a struct meant for the wire.
//
// testdata/testonly.txt lists the survivors, one "key reason" a line. The
// list may only shrink: a new test-only name fails until it is deleted or
// listed with a reason, and a listed name that a program reaches again, or
// that is gone, fails until its line is dropped.
func TestExportedSurface(t *testing.T) {
	const listFile = "testdata/testonly.txt"
	hits, err := testOnlySurface(".")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := readTestOnlyList(listFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range hits {
		if _, ok := listed[key]; !ok {
			t.Errorf("%s: no program reads it: delete it, or list it in %s with a reason", key, listFile)
		}
	}
	hit := map[string]bool{}
	for _, key := range hits {
		hit[key] = true
	}
	for key := range listed {
		if !hit[key] {
			t.Errorf("%s lists %s, which a program reaches or which is gone: drop its line", listFile, key)
		}
	}
	t.Logf("%d audited identifiers that no program reads", len(hits))
}

// TestExportedSurfaceRules pins each rule of the census on the fixture
// module in testdata/surface, whose cmd/app reaches internal/thing in every
// way the census tells apart: a field only written (as a struct literal key
// or by x.F = v, exported or not) or tagged json:"-" is reported, and a
// json-tagged field, a field touched by +=, ++ or &x.F, and a method that
// satisfies an interface are not.
func TestExportedSurfaceRules(t *testing.T) {
	hits, err := testOnlySurface("testdata/surface")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/thing.Config.Assigned",
		"internal/thing.Config.Literal",
		"internal/thing.Name.Shout",
		"internal/thing.Unused",
		"internal/thing.Wire.Skipped",
		"internal/thing.tally.stamped",
	}
	if !reflect.DeepEqual(hits, want) {
		t.Errorf("census of testdata/surface = %q, want %q", hits, want)
	}
}

// readTestOnlyList reads "key reason" lines; blank lines and lines starting
// with # are skipped, and a line without a reason is an error.
func readTestOnlyList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	list := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, key)
		}
		if _, dup := list[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, key)
		}
		list[key] = reason
	}
	return list, sc.Err()
}

// testOnlySurface returns the sorted keys ("internal/pkg.Name",
// "internal/pkg.Type.Member", "module.name" for the root package) of the
// module's audited identifiers that no non-test file reads in any of the
// two build contexts.
func testOnlySurface(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	s := &surface{
		root: root, module: module, fset: fset,
		std:      importer.ForCompiler(fset, "gc", nil),
		files:    map[string]*ast.File{},
		writes:   map[*ast.Ident]bool{},
		declared: map[string]bool{},
		used:     map[string]bool{},
	}
	purego := build.Default
	purego.BuildTags = append(append([]string(nil), purego.BuildTags...), "purego")
	for _, ctxt := range []build.Context{build.Default, purego} {
		if err := s.check(ctxt); err != nil {
			return nil, err
		}
	}
	var hits []string
	for key := range s.declared {
		if !s.used[key] {
			hits = append(hits, key)
		}
	}
	sort.Strings(hits)
	return hits, nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// surface accumulates, over build contexts, which audited keys exist and
// which a non-test file reads. Parsed files, the field
// writes found in them, and the standard library's export data are shared
// by both contexts.
type surface struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	files        map[string]*ast.File
	writes       map[*ast.Ident]bool
	declared     map[string]bool
	used         map[string]bool
}

// pass is one build context's type-check of the module.
type pass struct {
	*surface
	ctxt  build.Context
	pkgs  map[string]*types.Package
	infos []*types.Info
	// keys names each declared audited object; spans holds the source
	// ranges whose references to an object do not count (its own
	// declaration, and for a type, the methods declared on it).
	keys  map[types.Object]string
	spans map[types.Object][]span
	// ifaces holds every interface with methods, by method name.
	ifaces map[string][]*types.Interface
}

type span struct{ pos, end token.Pos }

// check type-checks every package of the module in ctxt and records what it
// declares under internal/ and in the root package and what its non-test
// files use.
func (s *surface) check(ctxt build.Context) error {
	p := &pass{surface: s, ctxt: ctxt, pkgs: map[string]*types.Package{},
		keys: map[types.Object]string{}, spans: map[types.Object][]span{},
		ifaces: map[string][]*types.Interface{}}
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != s.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		importPath := s.module
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		_, err = p.Import(importPath)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := p.collectInterfaces(); err != nil {
		return err
	}
	for obj, key := range p.keys {
		if m, ok := obj.(*types.Func); ok && p.satisfiesInterface(m) {
			s.used[key] = true
		}
	}
	for _, info := range p.infos {
		p.markUses(info)
	}
	return nil
}

// Import type-checks a module package from its non-test files and defers
// every other path to the standard library's export data.
func (p *pass) Import(path string) (*types.Package, error) {
	if path != p.module && !strings.HasPrefix(path, p.module+"/") {
		return p.std.Import(path)
	}
	if pkg, ok := p.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	dir := filepath.Join(p.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, p.module), "/")))
	bp, err := p.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		full := filepath.Join(dir, name)
		f, ok := p.files[full]
		if !ok {
			if f, err = parser.ParseFile(p.fset, full, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			p.files[full] = f
			p.collectWrites(f)
		}
		files = append(files, f)
	}
	p.pkgs[path] = nil
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: p}).Check(path, p.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s (tags %v): %w", path, p.ctxt.BuildTags, err)
	}
	p.pkgs[path] = pkg
	p.infos = append(p.infos, info)
	if internal := strings.HasPrefix(path, p.module+"/internal/"); internal || path == p.module {
		p.declare(strings.TrimPrefix(path, p.module+"/"), internal, info, files)
	}
	return pkg, nil
}

// declare names the audited objects of one package — every name of an
// internal package, the unexported names of the root — and records the
// spans whose references to them do not count. A field that encoding/xml
// or encoding/json reads by reflection is used as declared.
func (p *pass) declare(rel string, internal bool, info *types.Info, files []*ast.File) {
	add := func(obj types.Object, key string, n ast.Node) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		if internal || !obj.Exported() {
			p.keys[obj] = key
			p.declared[key] = true
		}
		p.spans[obj] = append(p.spans[obj], span{n.Pos(), n.End()})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					if d.Name.Name != "init" {
						add(info.Defs[d.Name], rel+"."+d.Name.Name, d)
					}
					continue
				}
				recv := receiverName(d.Recv.List[0].Type)
				add(info.Defs[d.Name], rel+"."+recv.Name+"."+d.Name.Name, d)
				if obj := info.Uses[recv]; obj != nil {
					p.spans[obj] = append(p.spans[obj], span{d.Pos(), d.End()})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(info.Defs[spec.Name], rel+"."+spec.Name.Name, spec)
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								key := rel + "." + spec.Name.Name + "." + name.Name
								add(info.Defs[name], key, field)
								if encoded(field, "xml") || encoded(field, "json") {
									p.used[key] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(info.Defs[name], rel+"."+name.Name, spec)
						}
					}
				}
			}
		}
	}
}

// receiverName is the base type identifier of a method receiver: T, *T,
// T[P] or *T[P].
func receiverName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return x.(*ast.Ident)
		}
	}
}

// encoded reports whether a struct field's tag has the given key with a
// value other than "-", the value that tells encoding to skip the field.
func encoded(field *ast.Field, key string) bool {
	if field.Tag == nil {
		return false
	}
	tag, err := strconv.Unquote(field.Tag.Value)
	v, ok := reflect.StructTag(tag).Lookup(key)
	return err == nil && ok && v != "-"
}

// errorsInterfaces are the interfaces errors.Is, As and Unwrap assert by
// literal, so that no package scope declares them.
const errorsInterfaces = `package errors
type wrapper interface{ Unwrap() error }
type multiWrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// collectInterfaces indexes every interface this pass can see: the named
// ones of each package it loaded (the standard library's included), the
// interface literals of the module, error, and errorsInterfaces.
func (p *pass) collectInterfaces() error {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			p.ifaces[name] = append(p.ifaces[name], iface)
		}
	}
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					add(named)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range p.pkgs {
		walk(pkg)
	}
	for _, info := range p.infos {
		for expr, tv := range info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok && tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(p.fset, "errors.go", errorsInterfaces, 0)
	if err != nil {
		return err
	}
	pkg, err := (&types.Config{}).Check("errors", p.fset, []*ast.File{f}, nil)
	if err != nil {
		return err
	}
	walk(pkg)
	return nil
}

// satisfiesInterface reports whether m's receiver type, or a pointer to it,
// implements an interface that has a method of m's name.
func (p *pass) satisfiesInterface(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range p.ifaces[m.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// collectWrites records the identifiers of f that may store into a field
// without reading it: the selector of x.F on the left of a plain = (:=
// cannot take one), and a key of a composite literal. markUses skips them
// when they name a field; op=, ++, -- and &x.F stay reads.
func (s *surface) collectWrites(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				break
			}
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					s.writes[sel.Sel] = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						s.writes[key] = true
					}
				}
			}
		}
		return true
	})
}

// markUses records every read from a non-test file of a declared object,
// except references inside the object's own declaration. A write to a field
// (collectWrites) is not a read.
func (p *pass) markUses(info *types.Info) {
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			if o.IsField() && p.writes[id] {
				continue
			}
			obj = o.Origin()
		}
		key, ok := p.keys[obj]
		if !ok || p.used[key] {
			continue
		}
		inside := false
		for _, s := range p.spans[obj] {
			if s.pos <= id.Pos() && id.Pos() < s.end {
				inside = true
				break
			}
		}
		if !inside {
			p.used[key] = true
		}
	}
}

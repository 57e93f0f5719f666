package classminer

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
	"slices"
	"sort"
	"strings"
	"testing"
)

// The code census: every package-level func, method, type and var of the
// module must be reached from a production root — a main other than
// cmd/loadgen's, an init, a blank var, a var whose initializer calls a
// function, or an interface method a reached type satisfies — or be listed
// in testdata/census.txt with the reason it stays. The census is built from
// the standard library alone: go/build finds the files, go/parser parses
// them and go/types resolves every identifier to the object it denotes.

// loadgenDir is the frozen load generator. Its main is not a production
// root; what only it reaches is reported as "loadgen", and its own
// declarations are not counted.
const loadgenDir = "cmd/loadgen"

// censusReasons are the reasons an unreached name may stay; the header of
// testdata/census.txt says what each means.
var censusReasons = []string{"seam", "oracle", "contract", "fixture", "loadgen"}

// A censusPkg is one type-checked package: its non-test files, or (with
// tests set) its non-test and in-package test files, or its external
// test files.
type censusPkg struct {
	path    string
	bp      *build.Package
	files   []*ast.File
	tests   []*ast.File // the _test.go files among files
	types   *types.Package
	info    *types.Info
	imports []string // module import paths
}

type census struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*censusPkg // non-test packages by import path
	order        []*censusPkg          // in dependency order
	edges        map[types.Object][]types.Object
	counted      map[types.Object]bool // the nodes the report covers
	ifaces       []*types.Interface
	methods      map[types.Object][]types.Object // type → methods satisfying an interface
}

// A censusEntry is one counted name no production root reaches, and what
// does: "loadgen" (frozen loadgen's main), "test" (only _test.go files) or
// "dead" (nothing). testPkgs counts the packages whose tests use it.
type censusEntry struct {
	name, class string
	testPkgs    int
}

func (e censusEntry) String() string { return e.name + " " + e.class }

// A censusReport is what runCensus finds: the unreached names, sorted, and
// every counted name.
type censusReport struct {
	unreached []censusEntry
	names     map[string]bool
}

// runCensus loads the module rooted at root and reports every counted name
// no production root reaches.
func runCensus(root string) (*censusReport, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	// With cgo off the source importer type-checks the pure-Go files of
	// packages such as net instead of running the cgo tool.
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = saved }()

	c := &census{
		root:    root,
		module:  module,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*censusPkg{},
		edges:   map[types.Object][]types.Object{},
		counted: map[types.Object]bool{},
		methods: map[types.Object][]types.Object{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	if err := c.loadAll(); err != nil {
		return nil, err
	}
	c.collectInterfaces()

	var prod, gen []types.Object
	for _, p := range c.order {
		if p.types.Name() != "main" {
			continue
		}
		seeds := append([]types.Object{p.types.Scope().Lookup("main")}, c.initSeeds(p)...)
		if c.inLoadgen(p.path) {
			gen = append(gen, seeds...)
		} else {
			prod = append(prod, seeds...)
		}
	}
	reached := c.reach(prod, nil)
	byGen := c.reach(gen, reached)
	testUsers, err := c.testUsers()
	if err != nil {
		return nil, err
	}
	var test []types.Object
	for o := range testUsers {
		test = append(test, o)
	}
	byTest := c.reach(test, reached)

	r := &censusReport{names: map[string]bool{}}
	for o := range c.counted {
		r.names[c.name(o)] = true
		if reached[o] {
			continue
		}
		e := censusEntry{name: c.name(o), class: "dead", testPkgs: len(testUsers[o])}
		switch {
		case byGen[o]:
			e.class = "loadgen"
		case byTest[o]:
			e.class = "test"
		}
		r.unreached = append(r.unreached, e)
	}
	sort.Slice(r.unreached, func(i, j int) bool { return r.unreached[i].name < r.unreached[j].name })
	return r, nil
}

func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", root)
}

func (c *census) inLoadgen(path string) bool {
	l := c.module + "/" + loadgenDir
	return path == l || strings.HasPrefix(path, l+"/")
}

// loadAll type-checks every non-test package under the root, each after
// the module packages it imports.
func (c *census) loadAll() error {
	var dirs []string
	err := filepath.WalkDir(c.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != c.root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return err
	}
	bps := map[string]*build.Package{}
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			continue
		}
		if err != nil {
			return err
		}
		if len(bp.GoFiles) > 0 {
			bps[c.importPath(dir)] = bp
		}
	}
	var load func(path string) error
	loading := map[string]bool{}
	load = func(path string) error {
		if c.pkgs[path] != nil {
			return nil
		}
		if loading[path] {
			return fmt.Errorf("import cycle through %s", path)
		}
		loading[path] = true
		bp := bps[path]
		if bp == nil {
			return fmt.Errorf("no package %s", path)
		}
		for _, imp := range bp.Imports {
			if c.isModule(imp) {
				if err := load(imp); err != nil {
					return err
				}
			}
		}
		p, err := c.check(path, bp, bp.GoFiles, nil, nil)
		if err != nil {
			return err
		}
		c.pkgs[path] = p
		c.order = append(c.order, p)
		c.graph(p)
		return nil
	}
	paths := make([]string, 0, len(bps))
	for path := range bps {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := load(path); err != nil {
			return err
		}
	}
	return nil
}

func (c *census) importPath(dir string) string {
	rel, _ := filepath.Rel(c.root, dir)
	if rel == "." {
		return c.module
	}
	return c.module + "/" + filepath.ToSlash(rel)
}

func (c *census) isModule(path string) bool {
	return path == c.module || strings.HasPrefix(path, c.module+"/")
}

// check parses and type-checks files (and the test files tests) of bp's
// directory as the package path. Module imports resolve to the loaded
// non-test packages, except those named in over.
func (c *census) check(path string, bp *build.Package, files, tests []string, over map[string]*types.Package) (*censusPkg, error) {
	p := &censusPkg{path: path, bp: bp}
	for i, name := range append(append([]string(nil), files...), tests...) {
		f, err := parser.ParseFile(c.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
		if i >= len(files) {
			p.tests = append(p.tests, f)
		}
		for _, imp := range f.Imports {
			if ip := strings.Trim(imp.Path.Value, `"`); c.isModule(ip) {
				p.imports = append(p.imports, ip)
			}
		}
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(ip string) (*types.Package, error) {
		if q := over[ip]; q != nil {
			return q, nil
		}
		if c.isModule(ip) {
			if q := c.pkgs[ip]; q != nil {
				return q.types, nil
			}
			return nil, fmt.Errorf("%s is not loaded", ip)
		}
		return c.std.Import(ip)
	})}
	if len(tests) > 0 {
		// An external test sees its package with the test files, and every
		// other module package without them, so the two copies of a type
		// do not match. go vet checks test files; the census only needs
		// what each identifier denotes, so it checks on past such errors.
		conf.Error = func(error) {}
		p.types, _ = conf.Check(path, c.fset, p.files, p.info)
		return p, nil
	}
	var err error
	p.types, err = conf.Check(path, c.fset, p.files, p.info)
	return p, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// graph adds p's nodes and the edge from each to every module object its
// declaration uses. Constants and aliases are nodes the report does not
// count, so what they use is reached through them.
func (c *census) graph(p *censusPkg) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				o := p.info.Defs[d.Name]
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "_") {
					continue // roots, seeded by initSeeds
				}
				c.node(p, o, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						c.node(p, p.info.Defs[s.Name], s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name != "_" {
								c.node(p, p.info.Defs[n], s)
							}
						}
					}
				}
			}
		}
	}
}

func (c *census) node(p *censusPkg, o types.Object, decl ast.Node) {
	if o == nil {
		return
	}
	if !c.inLoadgen(p.path) {
		switch o := o.(type) {
		case *types.Func, *types.Var:
			c.counted[o] = true
		case *types.TypeName:
			if !o.IsAlias() {
				c.counted[o] = true
			}
		}
	}
	c.edges[o] = append(c.edges[o], c.uses(p.info, decl)...)
}

// uses lists the module nodes an identifier under n denotes.
func (c *census) uses(info *types.Info, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := c.target(info.Uses[id]); o != nil {
				out = append(out, o)
			}
		}
		return true
	})
	return out
}

// target maps a used object to its graph node: the declared object for an
// instantiated one, and the interface type for an interface method.
func (c *census) target(o types.Object) types.Object {
	if o == nil || o.Pkg() == nil || !c.isModule(o.Pkg().Path()) {
		return nil
	}
	switch x := o.(type) {
	case *types.Func:
		x = x.Origin()
		if recv := x.Type().(*types.Signature).Recv(); recv != nil {
			if !types.IsInterface(recv.Type()) {
				return x
			}
			if n, ok := recv.Type().(*types.Named); ok {
				return c.target(n.Obj())
			}
			return nil
		}
		o = x
	case *types.Var:
		o = x.Origin()
	case *types.TypeName, *types.Const:
	default:
		return nil
	}
	if o.Parent() != o.Pkg().Scope() {
		return nil
	}
	return o
}

// initSeeds are the roots a package contributes when a main links it: its
// init funcs, blank vars, and vars whose initializer calls a function — for
// p and every module package it imports.
func (c *census) initSeeds(p *censusPkg) []types.Object {
	var seeds []types.Object
	seen := map[string]bool{}
	var walk func(p *censusPkg)
	walk = func(p *censusPkg) {
		if seen[p.path] {
			return
		}
		seen[p.path] = true
		for _, ip := range p.imports {
			walk(c.pkgs[ip])
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						seeds = append(seeds, c.uses(p.info, d)...)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						s, ok := s.(*ast.ValueSpec)
						if !ok || d.Tok != token.VAR {
							continue
						}
						calls := callsFunc(p.info, s)
						for _, n := range s.Names {
							switch {
							case n.Name == "_":
								seeds = append(seeds, c.uses(p.info, s)...)
							case calls:
								seeds = append(seeds, p.info.Defs[n])
							}
						}
					}
				}
			}
		}
	}
	walk(p)
	return seeds
}

// callsFunc reports whether evaluating s's values calls a function:
// conversions, builtins and the bodies of func literals do not count.
func callsFunc(info *types.Info, s *ast.ValueSpec) bool {
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; !tv.IsType() && !tv.IsBuiltin() {
					calls = true
				}
			}
			return !calls
		})
	}
	return calls
}

// collectInterfaces gathers the interfaces whose methods a reached type's
// methods may satisfy: the module's, those of each standard-library
// package the module imports, and error.
func (c *census) collectInterfaces() {
	add := func(scope *types.Scope, exportedOnly bool) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || (exportedOnly && !tn.Exported()) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				c.ifaces = append(c.ifaces, it)
			}
		}
	}
	add(types.Universe, false)
	std := map[*types.Package]bool{}
	for _, p := range c.order {
		add(p.types.Scope(), false)
		for _, q := range p.types.Imports() {
			if !c.isModule(q.Path()) && !std[q] {
				std[q] = true
				add(q.Scope(), true)
			}
		}
	}
}

// satisfying lists the methods of the named type o that implement a method
// of an interface o or *o satisfies.
func (c *census) satisfying(o types.Object) []types.Object {
	if ms, ok := c.methods[o]; ok {
		return ms
	}
	var ms []types.Object
	if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
			ptr := types.NewPointer(n)
			for _, it := range c.ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if t := c.target(obj); t != nil {
						ms = append(ms, t)
					}
				}
			}
		}
	}
	c.methods[o] = ms
	return ms
}

// reach marks everything reachable from seeds that is not in done.
func (c *census) reach(seeds []types.Object, done map[types.Object]bool) map[types.Object]bool {
	seen := map[types.Object]bool{}
	stack := append([]types.Object(nil), seeds...)
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if o == nil || seen[o] || done[o] {
			continue
		}
		seen[o] = true
		stack = append(stack, c.edges[o]...)
		stack = append(stack, c.satisfying(o)...)
	}
	return seen
}

// testUsers type-checks each package with its test files, and its
// external tests, and maps each node a test file uses to the directories
// whose tests use it.
func (c *census) testUsers() (map[types.Object]map[string]bool, error) {
	byName := map[string]types.Object{}
	for o := range c.edges {
		byName[c.name(o)] = o
	}
	users := map[types.Object]map[string]bool{}
	collect := func(p *censusPkg) {
		for _, f := range p.tests {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				// The test build's objects are its own; the name finds the
				// non-test build's node.
				if o := c.target(p.info.Uses[id]); o != nil {
					if node := byName[c.name(o)]; node != nil {
						if users[node] == nil {
							users[node] = map[string]bool{}
						}
						users[node][p.bp.Dir] = true
					}
				}
				return true
			})
		}
	}
	for _, q := range c.order {
		bp := q.bp
		over := map[string]*types.Package{}
		if len(bp.TestGoFiles) > 0 || len(bp.XTestGoFiles) > 0 {
			p, err := c.check(q.path, bp, bp.GoFiles, bp.TestGoFiles, nil)
			if err != nil {
				return nil, err
			}
			collect(p)
			over[q.path] = p.types
		}
		if len(bp.XTestGoFiles) > 0 {
			p, err := c.check(q.path+"_test", bp, nil, bp.XTestGoFiles, over)
			if err != nil {
				return nil, err
			}
			collect(p)
		}
	}
	return users, nil
}

// name is how the report and the allow-list write a node: the package path,
// the receiver's type name for a method, and the name.
func (c *census) name(o types.Object) string {
	if f, ok := o.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return o.Pkg().Path() + "." + n.Obj().Name() + "." + o.Name()
			}
		}
	}
	return o.Pkg().Path() + "." + o.Name()
}

// readCensusList parses an allow-list: one "name reason" per line, with #
// comments and blank lines ignored.
func readCensusList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	list := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"name reason\", got %q", path, line, text)
		}
		if _, dup := list[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, fields[0])
		}
		list[fields[0]] = fields[1]
	}
	return list, sc.Err()
}

// TestCodeCensus holds the module to its allow-list: every name no
// production root reaches is listed with a reason that fits how it is
// reached, and every listed name exists and is still unreached.
func TestCodeCensus(t *testing.T) {
	if raceEnabled {
		t.Skip("the census starts no goroutines; CI runs it without -race")
	}
	const listPath = "testdata/census.txt"
	report, err := runCensus(".")
	if err != nil {
		t.Fatal(err)
	}
	list, err := readCensusList(listPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, reason := range list {
		if !slices.Contains(censusReasons, reason) {
			t.Errorf("%s: %s has reason %q, not one of %s", listPath, name, reason, strings.Join(censusReasons, ", "))
		}
	}
	unreached := map[string]bool{}
	for _, e := range report.unreached {
		unreached[e.name] = true
		reason, listed := list[e.name]
		switch {
		case e.class == "dead":
			t.Errorf("%s: nothing reaches it, not even a test; delete it", e.name)
		case !listed:
			t.Errorf("%s: only %s code reaches it; delete it, or list it in %s with its reason", e.name, e.class, listPath)
		case e.class == "loadgen" && reason != "loadgen":
			t.Errorf("%s: only frozen loadgen reaches it, so its reason is loadgen, not %s", e.name, reason)
		case e.class == "test" && reason == "loadgen":
			t.Errorf("%s: listed as loadgen, but only tests reach it", e.name)
		case reason == "fixture" && e.testPkgs < 2:
			t.Errorf("%s: listed as fixture, but the tests of %d package(s) use it", e.name, e.testPkgs)
		}
	}
	for name := range list {
		switch {
		case !report.names[name]:
			t.Errorf("%s: listed in %s, but no longer exists; take it off", name, listPath)
		case !unreached[name]:
			t.Errorf("%s: listed in %s, but production code reaches it; take it off", name, listPath)
		}
	}
}

// TestCodeCensusFixture runs the census over a small module that plants
// one case of each kind it must tell apart.
func TestCodeCensusFixture(t *testing.T) {
	if raceEnabled {
		t.Skip("the census starts no goroutines; CI runs it without -race")
	}
	report, err := runCensus("testdata/census")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range report.unreached {
		got = append(got, e.String())
	}
	want := []string{
		"censusfixture/lib.LoadgenOnly loadgen",
		"censusfixture/lib.TestOnly test",
		"censusfixture/lib.deadA dead",
		"censusfixture/lib.deadB dead",
		"censusfixture/lib.square.Perimeter dead",
	}
	if !slices.Equal(got, want) {
		t.Errorf("census of testdata/census:\n got %q\nwant %q", got, want)
	}
}

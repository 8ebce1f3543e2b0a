// Package appfile serializes apps to a line-oriented textual format and
// parses them back. It lets cmd/corpusgen dump generated apps for
// inspection and cmd/sierra analyze hand-written .app files, standing in
// for the APK container real tooling consumes.
//
// Format (one directive per line, # comments):
//
//	app NAME
//	package PKG
//	installs TEXT
//	activity CLASS [layout NAME]
//	service CLASS
//	receiver CLASS [filter ACTION]
//	layout NAME
//	view LAYOUT ID TYPE PARENTID            (PARENTID -1 = root)
//	xmlcb LAYOUT ID KIND METHOD
//	class NAME [extends SUPER] [implements I1,I2] [library]
//	field CLASS NAME
//	method CLASS NAME [static] [params P1,P2]
//	block CLASS METHOD INDEX [succ S1,S2]
//	<stmt lines, see below>
//
// Statements (inside the current block):
//
//	new DST CLASS
//	const DST int N | const DST bool true|false | const DST null | const DST str "S"
//	move DST SRC
//	load DST OBJ FIELD
//	store OBJ FIELD SRC
//	sload DST CLASS FIELD
//	sstore CLASS FIELD SRC
//	binop DST OP A B
//	call v|s|p DST RECV CLASS METHOD [ARGS...]   (DST/RECV "_" = none)
//	if A OP (var V | int N | bool B | null)
//	ret SRC|_
package appfile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"sierra/internal/apk"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// Write serializes the app (manifest, layouts, and non-framework
// classes).
func Write(w io.Writer, app *apk.App) error {
	_, err := w.Write(appendApp(make([]byte, 0, 1<<14), app))
	return err
}

// appendApp renders the whole canonical serialization into b's spare
// capacity. Serialization is the corpus-generation hot path — every
// streamed app pays it once — so the entire format is emitted with
// byte appends (strconv.Append* for numbers), never fmt.
func appendApp(b []byte, app *apk.App) []byte {
	if app.Name != "" {
		b = append(b, "app "...)
		b = append(b, app.Name...)
		b = append(b, '\n')
	}
	if app.Manifest.Package != "" {
		b = append(b, "package "...)
		b = append(b, app.Manifest.Package...)
		b = append(b, '\n')
	}
	if app.Installs != "" {
		b = append(b, "installs "...)
		b = append(b, app.Installs...)
		b = append(b, '\n')
	}
	for _, c := range app.Manifest.Activities {
		b = append(b, "activity "...)
		b = append(b, c.Class...)
		if c.Layout != "" {
			b = append(b, " layout "...)
			b = append(b, c.Layout...)
		}
		b = append(b, '\n')
	}
	for _, c := range app.Manifest.Services {
		b = append(b, "service "...)
		b = append(b, c.Class...)
		b = append(b, '\n')
	}
	for _, c := range app.Manifest.Receivers {
		b = append(b, "receiver "...)
		b = append(b, c.Class...)
		if len(c.IntentFilters) > 0 {
			b = append(b, " filter "...)
			b = append(b, c.IntentFilters[0]...)
		}
		b = append(b, '\n')
	}
	names := make([]string, 0, len(app.Layouts))
	for n := range app.Layouts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b = append(b, "layout "...)
		b = append(b, n...)
		b = append(b, '\n')
		b = appendViews(b, n, app.Layouts[n].Root, -1)
	}
	for _, c := range app.Program.Classes() {
		if c.Framework {
			continue
		}
		b = appendClass(b, c)
	}
	return b
}

// Bytes serializes the app to its canonical textual form — the
// serialization Write produces, in memory. Because Write emits layouts,
// fields, methods, and callbacks in sorted/declaration order, two
// structurally identical apps yield identical bytes, which is what
// makes the form usable as a content-addressed cache key (see
// internal/batch). Serialize before analysis: harness generation
// extends the program with synthetic classes that would otherwise leak
// into the digest.
func Bytes(app *apk.App) ([]byte, error) {
	return appendApp(make([]byte, 0, 1<<14), app), nil
}

// AppendBytes is Bytes writing into dst's spare capacity — the
// streaming pipeline's allocation-recycling form. dst is typically a
// pooled buffer sliced to length 0; the returned slice shares its
// backing array when capacity suffices.
func AppendBytes(dst []byte, app *apk.App) ([]byte, error) {
	return appendApp(dst, app), nil
}

func appendViews(b []byte, layout string, v *apk.View, parent int) []byte {
	if v == nil {
		return b
	}
	b = append(b, "view "...)
	b = append(b, layout...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(v.ID), 10)
	b = append(b, ' ')
	b = append(b, v.Type...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(parent), 10)
	b = append(b, '\n')
	kinds := make([]string, 0, len(v.XMLCallbacks))
	for k := range v.XMLCallbacks {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		b = append(b, "xmlcb "...)
		b = append(b, layout...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v.ID), 10)
		b = append(b, ' ')
		b = append(b, k...)
		b = append(b, ' ')
		b = append(b, v.XMLCallbacks[k]...)
		b = append(b, '\n')
	}
	for _, c := range v.Children {
		b = appendViews(b, layout, c, v.ID)
	}
	return b
}

// appendJoin appends parts separated by commas (strings.Join without
// the intermediate string).
func appendJoin(b []byte, parts []string) []byte {
	for i, p := range parts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	return b
}

func appendClass(b []byte, c *ir.Class) []byte {
	b = append(b, "class "...)
	b = append(b, c.Name...)
	if c.Super != "" {
		b = append(b, " extends "...)
		b = append(b, c.Super...)
	}
	if len(c.Interfaces) > 0 {
		b = append(b, " implements "...)
		b = appendJoin(b, c.Interfaces)
	}
	if c.Library {
		b = append(b, " library"...)
	}
	b = append(b, '\n')
	for _, f := range c.Fields {
		b = append(b, "field "...)
		b = append(b, c.Name...)
		b = append(b, ' ')
		b = append(b, f...)
		b = append(b, '\n')
	}
	for _, m := range c.MethodsSorted() {
		b = append(b, "method "...)
		b = append(b, c.Name...)
		b = append(b, ' ')
		b = append(b, m.Name...)
		if m.Static {
			b = append(b, " static"...)
		}
		if len(m.Params) > 0 {
			b = append(b, " params "...)
			b = appendJoin(b, m.Params)
		}
		b = append(b, '\n')
		for bi, blk := range m.Blocks {
			b = append(b, "block "...)
			b = append(b, c.Name...)
			b = append(b, ' ')
			b = append(b, m.Name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(bi), 10)
			if len(blk.Succs) > 0 {
				b = append(b, " succ "...)
				for i, s := range blk.Succs {
					if i > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(s), 10)
				}
			}
			b = append(b, '\n')
			for _, s := range blk.Stmts {
				b = appendStmt(b, s)
				b = append(b, '\n')
			}
		}
	}
	return b
}

// StmtLine renders one statement in the canonical .app syntax — the
// exact line Write emits. Exported for internal/incremental, whose
// per-method fingerprints are hashes over these canonical lines (so the
// fingerprint and the serialized form can never drift apart).
func StmtLine(s ir.Stmt) string { return string(appendStmt(nil, s)) }

// appendOrUnderscore appends v, or "_" when v is empty (the format's
// none marker for optional operands).
func appendOrUnderscore(b []byte, v string) []byte {
	if v == "" {
		return append(b, '_')
	}
	return append(b, v...)
}

// appendStmt renders the canonical statement text into b. It is both
// the serialization and fingerprint hot path — two digests per
// statement per serve submission, one render per statement per
// streamed app — so it appends bytes directly instead of building
// intermediate strings (which dominated profiles of both lanes).
func appendStmt(b []byte, s ir.Stmt) []byte {
	switch st := s.(type) {
	case *ir.New:
		b = append(b, "new "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		return append(b, st.Class...)
	case *ir.Const:
		b = append(b, "const "...)
		b = append(b, st.Dst...)
		switch st.Kind {
		case ir.ConstInt:
			b = append(b, " int "...)
			return strconv.AppendInt(b, st.Int, 10)
		case ir.ConstBool:
			b = append(b, " bool "...)
			return strconv.AppendBool(b, st.Bool)
		case ir.ConstNull:
			return append(b, " null"...)
		default:
			b = append(b, " str "...)
			return strconv.AppendQuote(b, st.Str)
		}
	case *ir.Move:
		b = append(b, "move "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		return append(b, st.Src...)
	case *ir.Load:
		b = append(b, "load "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		b = append(b, st.Obj...)
		b = append(b, ' ')
		return append(b, st.Field...)
	case *ir.Store:
		b = append(b, "store "...)
		b = append(b, st.Obj...)
		b = append(b, ' ')
		b = append(b, st.Field...)
		b = append(b, ' ')
		return append(b, st.Src...)
	case *ir.StaticLoad:
		b = append(b, "sload "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		b = append(b, st.Class...)
		b = append(b, ' ')
		return append(b, st.Field...)
	case *ir.StaticStore:
		b = append(b, "sstore "...)
		b = append(b, st.Class...)
		b = append(b, ' ')
		b = append(b, st.Field...)
		b = append(b, ' ')
		return append(b, st.Src...)
	case *ir.BinOp:
		b = append(b, "binop "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		b = append(b, st.Op.String()...)
		b = append(b, ' ')
		b = append(b, st.A...)
		b = append(b, ' ')
		return append(b, st.B...)
	case *ir.Invoke:
		b = append(b, "call "...)
		switch st.Kind {
		case ir.InvokeStatic:
			b = append(b, 's')
		case ir.InvokeSpecial:
			b = append(b, 'p')
		default:
			b = append(b, 'v')
		}
		b = append(b, ' ')
		b = appendOrUnderscore(b, st.Dst)
		b = append(b, ' ')
		b = appendOrUnderscore(b, st.Recv)
		b = append(b, ' ')
		b = append(b, st.Class...)
		b = append(b, ' ')
		b = append(b, st.Method...)
		for _, a := range st.Args {
			b = append(b, ' ')
			b = append(b, a...)
		}
		return b
	case *ir.If:
		b = append(b, "if "...)
		b = append(b, st.A...)
		b = append(b, ' ')
		b = append(b, st.Op.String()...)
		b = append(b, ' ')
		op := st.B
		switch {
		case op.IsVar:
			b = append(b, "var "...)
			return append(b, op.Var...)
		case op.Kind == ir.ConstInt:
			b = append(b, "int "...)
			return strconv.AppendInt(b, op.Int, 10)
		case op.Kind == ir.ConstBool:
			b = append(b, "bool "...)
			return strconv.AppendBool(b, op.Bool)
		default:
			return append(b, "null"...)
		}
	case *ir.Return:
		b = append(b, "ret "...)
		return appendOrUnderscore(b, st.Src)
	default:
		return append(b, "# unknown"...)
	}
}

// Read reads r to the end and parses it (see Parse). io.Copy lets an
// in-memory reader (bytes.Reader, strings.Reader) hand over its bytes
// in one write, where io.ReadAll would grow its buffer step by step.
func Read(r io.Reader) (*apk.App, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	return Parse(buf.Bytes())
}

// maxLine is the longest line Parse accepts, in bytes before its
// newline: the limit of the bufio.Scanner the parser once read through.
const maxLine = 1<<20 - 1

// Parse parses an app file, installs the framework, finalizes the
// program, and validates the result. Every string the app keeps is
// copied out of raw, one copy per directive line, so the parsed app
// never pins raw: a long-lived app must not keep its whole source text
// alive through a few names.
func Parse(raw []byte) (*apk.App, error) {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	app := &apk.App{Program: p, Layouts: map[string]*apk.Layout{}}

	classes := map[string]*ir.Class{}
	viewsByLayout := map[string]map[int]*apk.View{}
	var curMethod *ir.Method
	var curBlock *ir.Block
	var curClassOfMethod string
	// stmts gathers the current block's statements; endBlock moves them
	// into the block as one exact-size slice, sparing the garbage of
	// growing every block's slice by doubling.
	var stmts []ir.Stmt
	endBlock := func() {
		if curBlock != nil && len(stmts) > 0 {
			curBlock.Stmts = append([]ir.Stmt(nil), stmts...)
		}
		stmts = stmts[:0]
	}

	var line string
	var fields [16]string
	f := fields[:0] // fields of line, reused across lines
	for lineNo := 1; len(raw) > 0; lineNo++ {
		l := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			l, raw = raw[:i], raw[i+1:]
		} else {
			raw = nil
		}
		if len(l) > maxLine {
			return nil, fmt.Errorf("appfile: line %d: %w", lineNo, bufio.ErrTooLong)
		}
		if line, f = splitLine(l, f); line == "" {
			continue
		}
		fail := func(msg string) error {
			return fmt.Errorf("appfile: line %d: %s: %q", lineNo, msg, line)
		}
		if n, ok := minArity[f[0]]; ok && len(f) < n {
			return nil, fail("too few fields")
		}
		switch f[0] {
		case "app":
			if len(f) < 2 {
				return nil, fail("app needs a name")
			}
			app.Name = f[1]
		case "package":
			app.Manifest.Package = f[1]
		case "installs":
			app.Installs = strings.TrimPrefix(line, "installs ")
		case "activity":
			c := apk.Component{Class: f[1]}
			if len(f) >= 4 && f[2] == "layout" {
				c.Layout = f[3]
			}
			app.Manifest.Activities = append(app.Manifest.Activities, c)
		case "service":
			app.Manifest.Services = append(app.Manifest.Services, apk.Component{Class: f[1]})
		case "receiver":
			c := apk.Component{Class: f[1]}
			if len(f) >= 4 && f[2] == "filter" {
				c.IntentFilters = []string{f[3]}
			}
			app.Manifest.Receivers = append(app.Manifest.Receivers, c)
		case "layout":
			app.Layouts[f[1]] = &apk.Layout{Name: f[1]}
			viewsByLayout[f[1]] = map[int]*apk.View{}
		case "view":
			if len(f) != 5 {
				return nil, fail("view needs LAYOUT ID TYPE PARENT")
			}
			id, err1 := strconv.Atoi(f[2])
			parent, err2 := strconv.Atoi(f[4])
			if err1 != nil || err2 != nil {
				return nil, fail("bad view ids")
			}
			l, ok := app.Layouts[f[1]]
			if !ok {
				return nil, fail("view before layout")
			}
			v := &apk.View{ID: id, Type: f[3]}
			viewsByLayout[f[1]][id] = v
			if parent < 0 {
				l.Root = v
			} else {
				pv, ok := viewsByLayout[f[1]][parent]
				if !ok {
					return nil, fail("unknown parent view")
				}
				pv.Children = append(pv.Children, v)
			}
		case "xmlcb":
			if len(f) != 5 {
				return nil, fail("xmlcb needs LAYOUT ID KIND METHOD")
			}
			id, _ := strconv.Atoi(f[2])
			v, ok := viewsByLayout[f[1]][id]
			if !ok {
				return nil, fail("xmlcb before view")
			}
			if v.XMLCallbacks == nil {
				v.XMLCallbacks = map[string]string{}
			}
			v.XMLCallbacks[f[3]] = f[4]
		case "class":
			c, err := parseClassLine(f)
			if err != nil {
				return nil, fail(err.Error())
			}
			if p.Class(c.Name) != nil {
				return nil, fail("duplicate class")
			}
			classes[c.Name] = c
			p.AddClass(c)
		case "field":
			c, ok := classes[f[1]]
			if !ok {
				return nil, fail("field before class")
			}
			c.Fields = append(c.Fields, f[2])
		case "method":
			c, ok := classes[f[1]]
			if !ok {
				return nil, fail("method before class")
			}
			if c.Methods[f[2]] != nil {
				return nil, fail("duplicate method")
			}
			m := &ir.Method{Name: f[2]}
			for i := 3; i < len(f); i++ {
				switch f[i] {
				case "static":
					m.Static = true
				case "params":
					i++
					if i < len(f) {
						m.Params = strings.Split(f[i], ",")
					}
				}
			}
			c.AddMethod(m)
			curMethod = m
			curClassOfMethod = c.Name
			endBlock()
			curBlock = nil
		case "block":
			if curMethod == nil || f[1] != curClassOfMethod || f[2] != curMethod.Name {
				return nil, fail("block outside its method")
			}
			idx, err := strconv.Atoi(f[3])
			if err != nil || idx != len(curMethod.Blocks) {
				return nil, fail("blocks must be declared in order")
			}
			b := &ir.Block{Index: idx}
			for i := 4; i < len(f); i++ {
				if f[i] == "succ" && i+1 < len(f) {
					for _, s := range strings.Split(f[i+1], ",") {
						n, err := strconv.Atoi(s)
						if err != nil {
							return nil, fail("bad succ")
						}
						b.Succs = append(b.Succs, n)
					}
				}
			}
			curMethod.Blocks = append(curMethod.Blocks, b)
			endBlock()
			curBlock = b
		default:
			if curBlock == nil {
				return nil, fail("statement outside a block")
			}
			st, err := parseStmt(f, line)
			if err != nil {
				return nil, fail(err.Error())
			}
			stmts = append(stmts, st)
		}
	}
	endBlock()
	p.Finalize()
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// asciiSpace marks the bytes strings.Fields and strings.TrimSpace treat
// as space in ASCII text.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitLine splits l as strings.Fields(strings.TrimSpace(string(l)))
// would, into f's backing array. Blank and comment lines yield "" and
// allocate nothing; any other line is copied into one string, which
// is returned with its fields as substrings of it. Lines holding a
// non-ASCII byte take the strings package's Unicode-aware path.
func splitLine(l []byte, f []string) (string, []string) {
	f = f[:0]
	for _, c := range l {
		if c >= utf8.RuneSelf {
			t := bytes.TrimSpace(l)
			if len(t) == 0 || t[0] == '#' {
				return "", f
			}
			line := string(t)
			return line, append(f, strings.Fields(line)...)
		}
	}
	i, j := 0, len(l)
	for i < j && asciiSpace[l[i]] {
		i++
	}
	for j > i && asciiSpace[l[j-1]] {
		j--
	}
	if i == j || l[i] == '#' {
		return "", f
	}
	line := string(l[i:j])
	for k := 0; k < len(line); {
		start := k
		for k < len(line) && !asciiSpace[line[k]] {
			k++
		}
		f = append(f, line[start:k])
		for k < len(line) && asciiSpace[line[k]] {
			k++
		}
	}
	return line, f
}

// minArity is the minimum field count per directive and statement —
// checked up front so handlers can index positionally.
var minArity = map[string]int{
	"app": 2, "package": 2, "installs": 2,
	"activity": 2, "service": 2, "receiver": 2,
	"layout": 2, "view": 5, "xmlcb": 5,
	"class": 2, "field": 3, "method": 3, "block": 4,
	"new": 3, "const": 3, "move": 3, "load": 4, "store": 4,
	"sload": 4, "sstore": 4, "binop": 5, "call": 6, "if": 4, "ret": 2,
}

func parseClassLine(f []string) (*ir.Class, error) {
	if len(f) < 2 {
		return nil, fmt.Errorf("class needs a name")
	}
	c := ir.NewClass(f[1], frontend.Object)
	for i := 2; i < len(f); i++ {
		switch f[i] {
		case "extends":
			i++
			if i >= len(f) {
				return nil, fmt.Errorf("extends needs a class")
			}
			c.Super = f[i]
		case "implements":
			i++
			if i >= len(f) {
				return nil, fmt.Errorf("implements needs interfaces")
			}
			c.Interfaces = strings.Split(f[i], ",")
		case "library":
			c.Library = true
		}
	}
	return c, nil
}

func noneEmpty(v string) string {
	if v == "_" {
		return ""
	}
	return v
}

func parseStmt(f []string, line string) (ir.Stmt, error) {
	switch f[0] {
	case "new":
		if len(f) != 3 {
			return nil, fmt.Errorf("new DST CLASS")
		}
		return &ir.New{Dst: f[1], Class: f[2], Site: -1}, nil
	case "const":
		if len(f) < 3 {
			return nil, fmt.Errorf("const needs kind")
		}
		if f[2] != "null" && len(f) < 4 {
			return nil, fmt.Errorf("const %s needs a value", f[2])
		}
		switch f[2] {
		case "int":
			n, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return nil, err
			}
			return &ir.Const{Dst: f[1], Kind: ir.ConstInt, Int: n}, nil
		case "bool":
			return &ir.Const{Dst: f[1], Kind: ir.ConstBool, Bool: f[3] == "true"}, nil
		case "null":
			return &ir.Const{Dst: f[1], Kind: ir.ConstNull}, nil
		case "str":
			_, lit, ok := strings.Cut(line, " str ")
			if !ok {
				return nil, fmt.Errorf("const str needs a quoted value")
			}
			s, err := strconv.Unquote(strings.TrimSpace(lit))
			if err != nil {
				return nil, err
			}
			return &ir.Const{Dst: f[1], Kind: ir.ConstString, Str: s}, nil
		}
		return nil, fmt.Errorf("bad const kind %q", f[2])
	case "move":
		return &ir.Move{Dst: f[1], Src: f[2]}, nil
	case "load":
		return &ir.Load{Dst: f[1], Obj: f[2], Field: f[3]}, nil
	case "store":
		return &ir.Store{Obj: f[1], Field: f[2], Src: f[3]}, nil
	case "sload":
		return &ir.StaticLoad{Dst: f[1], Class: f[2], Field: f[3]}, nil
	case "sstore":
		return &ir.StaticStore{Class: f[1], Field: f[2], Src: f[3]}, nil
	case "binop":
		op, err := parseBinOp(f[2])
		if err != nil {
			return nil, err
		}
		return &ir.BinOp{Dst: f[1], Op: op, A: f[3], B: f[4]}, nil
	case "call":
		if len(f) < 6 {
			return nil, fmt.Errorf("call KIND DST RECV CLASS METHOD [ARGS]")
		}
		var kind ir.InvokeKind
		switch f[1] {
		case "v":
			kind = ir.InvokeVirtual
		case "s":
			kind = ir.InvokeStatic
		case "p":
			kind = ir.InvokeSpecial
		default:
			return nil, fmt.Errorf("bad call kind %q", f[1])
		}
		return &ir.Invoke{
			Kind: kind, Dst: noneEmpty(f[2]), Recv: noneEmpty(f[3]),
			Class: f[4], Method: f[5], Args: append([]string(nil), f[6:]...),
		}, nil
	case "if":
		op, err := parseCmpOp(f[2])
		if err != nil {
			return nil, err
		}
		var b ir.Operand
		if f[3] != "null" && len(f) < 5 {
			return nil, fmt.Errorf("if operand %s needs a value", f[3])
		}
		switch f[3] {
		case "var":
			b = ir.VarOperand(f[4])
		case "int":
			n, err := strconv.ParseInt(f[4], 10, 64)
			if err != nil {
				return nil, err
			}
			b = ir.IntOperand(n)
		case "bool":
			b = ir.BoolOperand(f[4] == "true")
		case "null":
			b = ir.NullOperand()
		default:
			return nil, fmt.Errorf("bad if operand %q", f[3])
		}
		return &ir.If{A: f[1], Op: op, B: b}, nil
	case "ret":
		return &ir.Return{Src: noneEmpty(f[1])}, nil
	}
	return nil, fmt.Errorf("unknown statement %q", f[0])
}

func parseBinOp(s string) (ir.BinOpKind, error) {
	for _, op := range []ir.BinOpKind{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("bad binop %q", s)
}

func parseCmpOp(s string) (ir.CmpOp, error) {
	for _, op := range []ir.CmpOp{ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("bad cmp op %q", s)
}

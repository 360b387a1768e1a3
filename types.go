// Package objmig is a distributed-object runtime with migration control
// for non-monolithic applications, reproducing "Object Migration in
// Non-Monolithic Distributed Applications" (Ciupke, Kottmann, Walter;
// ICDCS 1996).
//
// Nodes host objects whose state is a Go struct of plain data. Remote
// invocations are trapped, linearised by a typed binary codec compiled
// once per Go type, and forwarded to the object's current location.
// Objects migrate under a configurable policy: the conventional
// Emerald-style move, the paper's transient placement, or the dynamic
// comparing strategies. Attachments keep working sets together, and
// alliances restrict their transitiveness so one component's
// migrations cannot silently drag another component's objects around.
package objmig

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"objmig/internal/core"
)

// NodeID identifies a node. It aliases the policy-level identifier so
// no conversions are needed anywhere in the stack.
type NodeID = core.NodeID

// AllianceID identifies an alliance (a cooperation context).
type AllianceID = core.AllianceID

// NoAlliance labels moves and attachments issued outside any alliance.
const NoAlliance = core.NoAlliance

// PolicyKind selects the node's move-policy.
type PolicyKind = core.PolicyKind

// Move-policy kinds (see internal/core for semantics).
const (
	PolicySedentary            = core.PolicySedentary
	PolicyConventional         = core.PolicyConventional
	PolicyPlacement            = core.PolicyPlacement
	PolicyCompareNodes         = core.PolicyCompareNodes
	PolicyCompareReinstantiate = core.PolicyCompareReinstantiate
)

// AttachMode selects how transitive attachments are.
type AttachMode = core.AttachMode

// Attachment modes (see internal/core for semantics).
const (
	AttachUnrestricted = core.AttachUnrestricted
	AttachATransitive  = core.AttachATransitive
	AttachExclusive    = core.AttachExclusive
)

// Ref is a global reference to a distributed object. Refs are
// comparable, covered by the typed codec (they may be stored inside
// object state and passed as arguments) and stable across migrations.
type Ref struct {
	OID core.OID // the object's cluster-unique identity (origin, seq)
}

// String renders the reference as origin/seq.
func (r Ref) String() string { return r.OID.String() }

// IsZero reports whether the Ref is the zero reference.
func (r Ref) IsZero() bool { return r.OID == core.OID{} }

// ParseRef parses the origin/seq form produced by Ref.String.
func ParseRef(s string) (Ref, error) {
	i := strings.LastIndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return Ref{}, fmt.Errorf("objmig: malformed ref %q (want origin/seq)", s)
	}
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return Ref{}, fmt.Errorf("objmig: malformed ref %q: %w", s, err)
	}
	return Ref{OID: core.OID{Origin: NodeID(s[:i]), Seq: seq}}, nil
}

// Ctx is the environment passed to object methods: the request context
// plus the hosting node, so methods can make nested invocations and
// issue migration primitives.
type Ctx struct {
	ctx  context.Context
	node *Node
	self Ref
}

// Context returns the request context.
func (c *Ctx) Context() context.Context { return c.ctx }

// Node returns the node currently hosting the object.
func (c *Ctx) Node() *Node { return c.node }

// Self returns the reference of the object being invoked.
func (c *Ctx) Self() Ref { return c.self }

// methodFunc is the erased form of a registered method.
type methodFunc func(c *Ctx, inst interface{}, arg []byte) ([]byte, error)

// objectType is the erased view of Type[S] the node works with.
type objectType interface {
	Name() string
	newInstance() interface{}
	method(name string) (methodFunc, bool)
	methodNames() []string
	encodeState(inst interface{}) ([]byte, error)
	decodeState(data []byte) (interface{}, error)
}

// Type describes a registrable object type whose state is S. S must be
// a struct the typed codec covers: its exported fields carry the state
// and may be booleans, integers, floats, strings, byte slices, and
// slices, arrays, maps and structs of those. Interface, pointer,
// channel, function and recursive types are not covered.
type Type[S any] struct {
	name    string
	state   *typeCodec
	methods map[string]methodFunc
}

var _ objectType = (*Type[struct{}])(nil)

// NewType declares an object type under the given name and compiles
// its state codec. It panics, naming the field path, if the codec does
// not cover S. Register the type with Node.RegisterType on every node
// that may host instances.
func NewType[S any](name string) *Type[S] {
	return &Type[S]{
		name:    name,
		state:   mustCodec(reflect.TypeFor[S](), "type "+name+": state"),
		methods: make(map[string]methodFunc),
	}
}

// Name returns the registered type name.
func (t *Type[S]) Name() string { return t.name }

func (t *Type[S]) newInstance() interface{} { return new(S) }

func (t *Type[S]) method(name string) (methodFunc, bool) {
	m, ok := t.methods[name]
	return m, ok
}

func (t *Type[S]) methodNames() []string {
	out := make([]string, 0, len(t.methods))
	for n := range t.methods {
		out = append(out, n)
	}
	return out
}

func (t *Type[S]) encodeState(inst interface{}) ([]byte, error) {
	s, ok := inst.(*S)
	if !ok {
		return nil, fmt.Errorf("objmig: type %s: instance is %T", t.name, inst)
	}
	return t.state.enc(nil, reflect.ValueOf(s).Elem()), nil
}

func (t *Type[S]) decodeState(data []byte) (interface{}, error) {
	s := new(S)
	if err := t.state.decode(data, reflect.ValueOf(s).Elem()); err != nil {
		return nil, fmt.Errorf("objmig: reinstall %s: %w", t.name, err)
	}
	return s, nil
}

// HandleFunc registers a method on the type and compiles its argument
// and result codecs; it panics, naming the field path, if the typed
// codec does not cover A or R, and on a duplicate name. Arguments and
// results are passed by value: a call linearises them even when the
// object is local. Methods execute one at a time per object (objects
// are monitors).
func HandleFunc[S, A, R any](t *Type[S], name string, fn func(c *Ctx, s *S, arg A) (R, error)) {
	if _, dup := t.methods[name]; dup {
		panic(fmt.Sprintf("objmig: method %s.%s registered twice", t.name, name))
	}
	what := "method " + t.name + "." + name
	argC := mustCodec(reflect.TypeFor[A](), what+": argument")
	resC := mustCodec(reflect.TypeFor[R](), what+": result")
	t.methods[name] = func(c *Ctx, inst interface{}, argBytes []byte) ([]byte, error) {
		s, ok := inst.(*S)
		if !ok {
			return nil, fmt.Errorf("objmig: %s.%s: instance is %T", t.name, name, inst)
		}
		var arg A
		if err := argC.decode(argBytes, reflect.ValueOf(&arg).Elem()); err != nil {
			return nil, fmt.Errorf("objmig: %s.%s: decode argument: %w", t.name, name, err)
		}
		res, err := fn(c, s, arg)
		if err != nil {
			return nil, err
		}
		return resC.enc(nil, reflect.ValueOf(res)), nil
	}
}

// Call invokes a method on a (possibly remote) object and decodes its
// result. It is the typed client-side counterpart of HandleFunc, and
// uses the same cached codecs; it returns an error if the typed codec
// does not cover A or R.
func Call[A, R any](ctx context.Context, n *Node, ref Ref, method string, arg A) (R, error) {
	var res R
	argC, err := codecFor(reflect.TypeFor[A]())
	if err != nil {
		return res, fmt.Errorf("objmig: encode argument: %w", err)
	}
	resC, err := codecFor(reflect.TypeFor[R]())
	if err != nil {
		return res, fmt.Errorf("objmig: decode result: %w", err)
	}
	resBytes, err := n.InvokeRaw(ctx, ref, method, argC.enc(nil, reflect.ValueOf(arg)))
	if err != nil {
		return res, err
	}
	if err := resC.decode(resBytes, reflect.ValueOf(&res).Elem()); err != nil {
		var zero R
		return zero, fmt.Errorf("objmig: decode result: %w", err)
	}
	return res, nil
}

// NestedCall is Call for use inside object methods: it derives the
// request context from the method's Ctx.
func NestedCall[A, R any](c *Ctx, ref Ref, method string, arg A) (R, error) {
	return Call[A, R](c.ctx, c.node, ref, method, arg)
}

package tclish

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func eval(t *testing.T, script string) string {
	t.Helper()
	in := New(nil)
	out, err := in.Eval(script)
	if err != nil {
		t.Fatalf("Eval(%q): %v", script, err)
	}
	return out
}

func evalErr(t *testing.T, script string) error {
	t.Helper()
	in := New(nil)
	_, err := in.Eval(script)
	if err == nil {
		t.Fatalf("Eval(%q) succeeded", script)
	}
	return err
}

func TestSetAndSubstitute(t *testing.T) {
	cases := []struct{ script, want string }{
		{`set a 5`, "5"},
		{"set a 5\nset a", "5"},
		{`set a 5; set b $a`, "5"},
		{`set a 5; set b ${a}x`, "5x"},
		{`set a hello; set b "$a world"`, "hello world"},
		{`set a hello; set b {$a world}`, "$a world"},
		{`set x [expr 2 + 3]`, "5"},
		{`set a 1; set b "nested [set a]"`, "nested 1"},
		{"set a 7 ;# trailing comment\nset a", "7"},
		{`set s "tab\there"`, "tab\there"},
		{`set d "\$notavar"`, "$notavar"},
	}
	for _, c := range cases {
		if got := eval(t, c.script); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.script, got, c.want)
		}
	}
}

func TestUnknownVariableAndCommand(t *testing.T) {
	if err := evalErr(t, `set b $nope`); !strings.Contains(err.Error(), "no such variable") {
		t.Error(err)
	}
	if err := evalErr(t, `frobnicate 1 2`); !strings.Contains(err.Error(), "unknown command") {
		t.Error(err)
	}
	if err := evalErr(t, `set`); !strings.Contains(err.Error(), "wrong # args") {
		t.Error(err)
	}
}

func TestUnset(t *testing.T) {
	in := New(nil)
	if _, err := in.Eval(`set a 1; unset a`); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Eval(`set a`); err == nil {
		t.Fatal("variable survives unset")
	}
}

func TestPuts(t *testing.T) {
	var buf bytes.Buffer
	in := New(&buf)
	if _, err := in.Eval(`puts "hello"; puts -nonewline done`); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hello\ndone" {
		t.Fatalf("output %q", buf.String())
	}
}

func TestExpr(t *testing.T) {
	cases := []struct{ script, want string }{
		{`expr 1 + 2 * 3`, "7"},
		{`expr (1 + 2) * 3`, "9"},
		{`expr 7 / 2`, "3"},
		{`expr 7.0 / 2`, "3.5"},
		{`expr 7 % 3`, "1"},
		{`expr -4 + 1`, "-3"},
		{`expr 2 < 3`, "1"},
		{`expr 2 >= 3`, "0"},
		{`expr 1 && 0`, "0"},
		{`expr 1 || 0`, "1"},
		{`expr !0`, "1"},
		{`expr 0x10 + 1`, "17"},
		{`expr 1e2 + 1`, "101"},
		{`set a 4; expr {$a * $a}`, "16"},
		{`expr abc eq abc`, "1"},
		{`expr abc ne abc`, "0"},
		{`expr {"a b" eq "a b"}`, "1"},
		{`expr 1 == 1.0`, "1"},
		{`expr abc == abc`, "1"},
	}
	for _, c := range cases {
		if got := eval(t, c.script); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.script, got, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	for _, script := range []string{
		`expr 1 /`,
		`expr 1 / 0`,
		`expr 5 % 0`,
		`expr (1 + 2`,
		`expr abc + 1`,
		`expr 1 +* 2`,
		`expr abc < def`,
	} {
		err := evalErr(t, script)
		if !errors.Is(err, ErrExpr) {
			t.Errorf("Eval(%q): %v not an expression error", script, err)
		}
	}
}

func TestIfElse(t *testing.T) {
	script := `
set x 7
if {$x > 10} {
    set r big
} elseif {$x > 5} {
    set r medium
} else {
    set r small
}
set r`
	if got := eval(t, script); got != "medium" {
		t.Fatalf("if chain = %q", got)
	}
	if got := eval(t, `if {1 > 2} {set r a}; set r unset-ok`); got != "unset-ok" {
		t.Fatalf("no-branch if = %q", got)
	}
}

func TestWhileLoop(t *testing.T) {
	script := `
set sum 0
set i 0
while {$i < 10} {
    set sum [expr $sum + $i]
    incr i
}
set sum`
	if got := eval(t, script); got != "45" {
		t.Fatalf("while sum = %q", got)
	}
}

func TestForLoop(t *testing.T) {
	script := `
set sum 0
for {set i 1} {$i <= 4} {incr i} {
    set sum [expr $sum + $i]
}
set sum`
	if got := eval(t, script); got != "10" {
		t.Fatalf("for sum = %q", got)
	}
}

func TestBreakContinue(t *testing.T) {
	script := `
set acc ""
set i 0
while {$i < 10} {
    incr i
    if {$i == 3} { continue }
    if {$i == 6} { break }
    set acc "$acc$i"
}
set acc`
	if got := eval(t, script); got != "1245" {
		t.Fatalf("acc = %q", got)
	}
}

func TestForeach(t *testing.T) {
	script := `
set acc ""
foreach x {a b {c d} e} {
    set acc "$acc<$x>"
}
set acc`
	if got := eval(t, script); got != "<a><b><c d><e>" {
		t.Fatalf("acc = %q", got)
	}
}

func TestProc(t *testing.T) {
	script := `
proc square {x} { return [expr $x * $x] }
proc sumsq {a b} {
    set s [expr [square $a] + [square $b]]
    return $s
}
sumsq 3 4`
	if got := eval(t, script); got != "25" {
		t.Fatalf("sumsq = %q", got)
	}
}

func TestProcScoping(t *testing.T) {
	script := `
set x global
proc touch {} { set x local; return $x }
touch
set x`
	if got := eval(t, script); got != "global" {
		t.Fatalf("global x = %q", got)
	}
	// Procs read globals when no local exists.
	script2 := `
set g 42
proc readg {} { return $g }
readg`
	if got := eval(t, script2); got != "42" {
		t.Fatalf("readg = %q", got)
	}
}

func TestProcArity(t *testing.T) {
	err := evalErr(t, `proc two {a b} {return $a}; two 1`)
	if !strings.Contains(err.Error(), "wants 2 args") {
		t.Fatal(err)
	}
}

func TestReturnOutsideProcBubbles(t *testing.T) {
	in := New(nil)
	out, err := in.Eval(`return topvalue`)
	var sig returnSignal
	if !errors.As(err, &sig) || out != "topvalue" {
		t.Fatalf("top-level return: %q %v", out, err)
	}
}

func TestListCommands(t *testing.T) {
	cases := []struct{ script, want string }{
		{`list a b "c d"`, "a b {c d}"},
		{`list`, ""},
		{`lindex {a b c} 1`, "b"},
		{`lindex {a b c} 9`, ""},
		{`llength {a {b c} d}`, "3"},
		{`llength {}`, "0"},
		{`set l {}; lappend l x; lappend l "y z"; set l`, "x {y z}"},
	}
	for _, c := range cases {
		if got := eval(t, c.script); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.script, got, c.want)
		}
	}
}

func TestStringCommand(t *testing.T) {
	cases := []struct{ script, want string }{
		{`string length hello`, "5"},
		{`string toupper abc`, "ABC"},
		{`string tolower ABC`, "abc"},
		{`string equal a a`, "1"},
		{`string equal a b`, "0"},
		{`string trim "  x  "`, "x"},
	}
	for _, c := range cases {
		if got := eval(t, c.script); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.script, got, c.want)
		}
	}
	if err := evalErr(t, `string frob a`); !strings.Contains(err.Error(), "unknown subcommand") {
		t.Error(err)
	}
}

func TestEvalCommand(t *testing.T) {
	if got := eval(t, `set cmd {expr 1 + 1}; eval $cmd`); got != "2" {
		t.Fatalf("eval = %q", got)
	}
}

func TestUnbalancedDelimiters(t *testing.T) {
	for _, script := range []string{
		`set a {unclosed`,
		`set a "unclosed`,
		`set a [expr 1`,
	} {
		if err := evalErr(t, script); !errors.Is(err, ErrUnbalanced) {
			t.Errorf("Eval(%q): %v", script, err)
		}
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	err := evalErr(t, `proc loop {} { loop }; loop`)
	if !strings.Contains(err.Error(), "nested deeper") {
		t.Fatal(err)
	}
}

func TestWhileIterationLimit(t *testing.T) {
	// An infinite loop must terminate with the iteration guard rather
	// than hang the control session.  Use a cheap body.
	in := New(nil)
	in.LoopLimit = 1000
	_, err := in.Eval(`while {1} {}`)
	if err == nil || !strings.Contains(err.Error(), "iteration limit") {
		t.Fatal(err)
	}
	in.LoopLimit = 1000
	_, err = in.Eval(`for {set i 0} {1} {} {}`)
	if err == nil || !strings.Contains(err.Error(), "iteration limit") {
		t.Fatal(err)
	}
}

func TestSplitListRoundTrip(t *testing.T) {
	elems := []string{"plain", "two words", "", "braces{inside}", "dollar$var"}
	joined := JoinList(elems)
	got, err := SplitList(joined)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, elems) {
		t.Fatalf("round trip: %#v via %q", got, joined)
	}
}

// TestSplitListSemicolon: a list has no command separators, so ';' is an
// ordinary character.  Each case gets a 1 s deadline; a SplitList that
// stops making progress takes the test binary down with every goroutine's
// stack instead of growing the heap until the kernel kills it.
func TestSplitListSemicolon(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []string
	}{
		{";", []string{";"}},
		{"a;b", []string{"a;b"}},
		{"a ; b", []string{"a", ";", "b"}},
		{"{a;b} c", []string{"a;b", "c"}},
	} {
		done := make(chan struct{})
		var got []string
		var err error
		go func() {
			got, err = SplitList(c.in)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			debug.SetTraceback("all")
			panic(fmt.Sprintf("SplitList(%q) did not return within 1s", c.in))
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

// TestQuoteListElementRoundTrip: every element, unbalanced braces
// included, reads back as itself.
func TestQuoteListElementRoundTrip(t *testing.T) {
	for _, e := range []string{"}", "{", "a}b", "{a", "}{", `a\`, `\}`, "x y}", `"`, "a;b", "[x", "tab\there", "nl\nhere", `\n`} {
		q := QuoteListElement(e)
		got, err := SplitList(q)
		if err != nil || len(got) != 1 || got[0] != e {
			t.Errorf("QuoteListElement(%q) = %q, reads back as %q, %v", e, q, got, err)
		}
	}
	if got := eval(t, `llength [list "}" "{" a]`); got != "3" {
		t.Errorf("llength of a list of lone braces = %s, want 3", got)
	}
}

func TestQuickSplitListNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = SplitList(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEvalNeverPanics(t *testing.T) {
	f := func(s string) bool {
		in := New(nil)
		_, _ = in.Eval(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterCustomCommand(t *testing.T) {
	in := New(nil)
	in.Register("double", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, 1); err != nil {
			return "", err
		}
		return args[1] + args[1], nil
	})
	out, err := in.Eval(`double ab`)
	if err != nil || out != "abab" {
		t.Fatalf("%q %v", out, err)
	}
}

func TestLineContinuation(t *testing.T) {
	if got := eval(t, "set a \\\n5"); got != "5" {
		t.Fatalf("continuation = %q", got)
	}
}

package tx

// FuncProc adapts an arbitrary function to the Procedure interface. It is
// the escape hatch for in-process embedders and tests: the function has no
// wire form, so a worker's Submit refuses it (WireTag).
type FuncProc struct {
	Reads  []Key
	Writes []Key
	Fn     func(ctx ExecCtx)
}

// ReadSet implements Procedure.
func (p *FuncProc) ReadSet() []Key { return p.Reads }

// WriteSet implements Procedure.
func (p *FuncProc) WriteSet() []Key { return p.Writes }

// Execute implements Procedure.
func (p *FuncProc) Execute(ctx ExecCtx) { p.Fn(ctx) }

// dotAsm's instructions would live here. The file's presence is what lets
// the compiler accept the body-less declaration in vec.go; the linter
// reads only Go source.

module lintcase

go 1.22

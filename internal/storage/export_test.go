package storage

// Test-only exports for the external storage_test package, which needs
// datagen (and datagen imports storage).
var (
	AnalyzeColumn          = analyzeColumn
	ReferenceAnalyzeColumn = referenceAnalyzeColumn
)
